package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Service-level objective and ladder shape.
const (
	sloLimitMs     = 50.0 // p99 latency limit of a ladder step
	ladderFactor   = 1.05 // rate ratio between ladder steps
	ladderStepS    = 1.0  // seconds per ladder step
	ladderSteps    = 30   // first climb's steps cap: 1.05^29 = 4.1x its first step, 1.65x the implied capacity
	ladderClimbs   = 3    // climbs per run; the median of their slo_rps is reported
	ladderRestart  = 0.85 // a later climb's first step, as a share of the first climb's slo_rps
	laterSteps     = 10   // a later climb's steps cap: 1.05^9 = 1.55x its first step
	ladderFromCap  = 0.4  // first step, as a share of the capacity the nominal phase implies
	ladderMaxStart = 8.0  // highest first step, as a multiple of the nominal rate
	p99WindowS     = 2.0  // seconds of nominal phase per p99 window
	conns          = 2    // keep-alive connections per run
	svcSetupRuns   = 9    // sortd start-ups per run; the median is reported
	cleanDrain     = "drained cleanly (ledger 0 B, workspace 0 B)"
	startTimeout   = 30 * time.Second
)

// sortdProc is one sortd process on private loopback addresses.
type sortdProc struct {
	cmd               *exec.Cmd
	httpAddr, tcpAddr string
	metricsURL        string
	mu                sync.Mutex
	stderr            []string
	stderrDone        chan struct{}
}

// startSortd execs sortd with default flags on ephemeral loopback ports
// (spill stays disabled, the default) and waits until it has printed
// its listen addresses.
func startSortd(bin string, metrics bool) (*sortdProc, error) {
	args := []string{"-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0"}
	if metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	p := &sortdProc{cmd: exec.Command(bin, args...), stderrDone: make(chan struct{})}
	// sortd dies with the benchmark, however the benchmark ends.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sortd: %w", err)
	}
	ready := make(chan struct{})
	go p.readStderr(errPipe, metrics, ready)
	select {
	case <-ready:
		return p, nil
	case <-p.stderrDone:
		p.cmd.Wait()
		return nil, fmt.Errorf("sortd exited during start-up: %s", p.log())
	case <-time.After(startTimeout):
		p.cmd.Process.Kill()
		<-p.stderrDone
		p.cmd.Wait()
		return nil, errors.New("sortd did not report its addresses")
	}
}

// readStderr collects sortd's log lines, closing ready once every
// listen address is known.
func (p *sortdProc) readStderr(r io.Reader, metrics bool, ready chan struct{}) {
	defer close(p.stderrDone)
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.stderr = append(p.stderr, line)
		if a, ok := strings.CutPrefix(line, "sortd: serving HTTP API on "); ok {
			p.httpAddr = a
		}
		if a, ok := strings.CutPrefix(line, "sortd: serving TCP API on "); ok {
			p.tcpAddr = a
		}
		if a, ok := strings.CutPrefix(line, "sortd: serving metrics on "); ok {
			p.metricsURL = a // the /metrics page
		}
		done := p.httpAddr != "" && p.tcpAddr != "" && (!metrics || p.metricsURL != "")
		p.mu.Unlock()
		if done && !signalled {
			close(ready)
			signalled = true
		}
	}
	io.Copy(io.Discard, r)
}

func (p *sortdProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.stderr, " | ")
}

// waitHealthy polls /healthz until it answers 200.
func (p *sortdProc) waitHealthy() error {
	deadline := time.Now().Add(startTimeout)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + p.httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("sortd /healthz never answered 200")
}

// stop sends SIGTERM, waits for the process to exit, and reports any
// outcome other than a clean drain with empty ledger and workspace. A
// sortd that has not exited within startTimeout is killed.
func (p *sortdProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.cmd.Process.Kill()
		<-p.stderrDone
		p.cmd.Wait()
		return fmt.Errorf("signal sortd: %w", err)
	}
	select {
	case <-p.stderrDone:
	case <-time.After(startTimeout):
		p.cmd.Process.Kill()
		<-p.stderrDone
	}
	werr := p.cmd.Wait()
	log := p.log()
	if werr != nil || !strings.Contains(log, cleanDrain) {
		return fmt.Errorf("sortd did not drain cleanly (exit %v): %s", werr, log)
	}
	return nil
}

// dial opens one client connection of the workload's protocol.
func (p *sortdProc) dial(proto string) (client, error) {
	if proto == "tcp" {
		return dialTCP(p.tcpAddr)
	}
	return dialHTTP(p.httpAddr)
}

// setupSortd measures one service set-up: exec sortd, wait for /healthz
// 200, and get the first verified response.
func setupSortd(cfg config, r *svcRequest) (*sortdProc, float64, error) {
	t0 := time.Now()
	p, err := startSortd(cfg.sortd, false)
	if err != nil {
		return nil, 0, err
	}
	if err := p.waitHealthy(); err != nil {
		p.stop()
		return nil, 0, err
	}
	c, err := p.dial(cfg.w.proto)
	if err != nil {
		p.stop()
		return nil, 0, err
	}
	var res reqResult
	c.do(r, &res)
	c.close()
	if res.err != nil {
		p.stop()
		return nil, 0, fmt.Errorf("first request: %w", res.err)
	}
	return p, res.verified.Sub(t0).Seconds(), nil
}

// phase is one constant-rate stretch of an open-loop schedule; climb
// numbers the ladder climb it belongs to (0 for a fixed phase).
type phase struct {
	rate  float64
	dur   time.Duration
	climb int
}

// loadRun is the outcome of one open-loop schedule.
type loadRun struct {
	res                      []reqResult // requests in send order
	backlogStart, backlogEnd []int       // per executed phase
	phases                   []phase     // executed phases
}

// nextPhase chooses the schedule's next phase from what has run so far,
// or ends the schedule. Its requests of earlier phases may still be in
// flight: done reports which have finished.
type nextPhase func(lr *loadRun, done []atomic.Bool) (phase, bool)

// fixedPhases runs the given phases in order.
func fixedPhases(phases ...phase) (nextPhase, int) {
	total := 0
	for _, ph := range phases {
		total += int(math.Ceil(ph.rate*ph.dur.Seconds())) + 1
	}
	return func(lr *loadRun, _ []atomic.Bool) (phase, bool) {
		if p := len(lr.phases); p < len(phases) {
			return phases[p], true
		}
		return phase{}, false
	}, total
}

// runLoad sends pool requests (cycling) on an open-loop schedule over the
// clients, one goroutine per client. Each request is due at its
// scheduled time whether or not earlier ones finished; due requests wait
// in the client backlog for a free connection. next picks each phase;
// capacity bounds the requests the whole schedule can make. Spans go to
// tr when tracing.
func runLoad(clients []client, pool []*svcRequest, next nextPhase, capacity int, tr *tracer, spanName string) *loadRun {
	lr := &loadRun{res: make([]reqResult, capacity)}
	done := make([]atomic.Bool, capacity)
	// Sized to every request the schedule can make, so the scheduler
	// never blocks on a slow server: the backlog is the channel length.
	due := make(chan int, capacity)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			for i := range due {
				res := &lr.res[i]
				c.do(pool[res.pool], res)
				done[i].Store(true)
			}
		}(c)
	}

	idx := 0
	start := time.Now()
	for {
		ph, ok := next(lr, done)
		if !ok {
			break
		}
		p := len(lr.phases)
		lr.phases = append(lr.phases, ph)
		lr.backlogStart = append(lr.backlogStart, len(due))
		count := min(int(ph.rate*ph.dur.Seconds()), capacity-idx)
		for j := 0; j < count; j++ {
			t := start.Add(time.Duration(float64(j) / ph.rate * float64(time.Second)))
			if d := time.Until(t); d > 0 {
				time.Sleep(d)
			}
			lr.res[idx].sched, lr.res[idx].phase, lr.res[idx].pool = t, p, idx%len(pool)
			lr.res[idx].late = max(time.Since(t), 0)
			due <- idx
			idx++
		}
		start = start.Add(ph.dur)
		if d := time.Until(start); d > 0 {
			time.Sleep(d)
		}
		lr.backlogEnd = append(lr.backlogEnd, len(due))
	}
	close(due)
	wg.Wait()
	lr.res = lr.res[:idx]
	base := tr.reqIDs(idx)
	for i := range lr.res {
		traceRequest(tr, base+int64(i), spanName, &lr.res[i])
	}
	return lr
}

// traceRequest records one request's spans: the root from scheduled
// time to verified output, its backlog wait, the wire exchange, and the
// off-the-clock verification. In-process Submit calls also get the queue
// wait and sort the server reported, placed from the call's start.
func traceRequest(tr *tracer, req int64, name string, r *reqResult) {
	if tr == nil {
		return
	}
	root := tr.newID()
	ex := tr.newID()
	if name == "server.Submit" {
		q := r.sendAt.Add(time.Duration(r.queueNs))
		tr.add(0, ex, req, "server.queue_wait", r.sendAt, q)
		tr.add(0, ex, req, "server.sort", q, q.Add(time.Duration(r.sortNs)))
	}
	tr.add(0, root, req, "client.backlog", r.sched, r.sendAt)
	tr.add(ex, root, req, name, r.sendAt, r.done)
	tr.add(0, root, req, "client.verify", r.done, r.verified)
	tr.add(root, 0, req, "client.request", r.sched, r.verified)
}

// latencies returns the latencies (ms) of phase p's requests measured
// from their scheduled send time; failures and, when partial is set,
// unfinished requests are +Inf.
func (lr *loadRun) latencies(p int, done []atomic.Bool) []float64 {
	var out []float64
	for i := range lr.res {
		r := &lr.res[i]
		if r.sched.IsZero() || r.phase != p {
			continue
		}
		if done != nil && !done[i].Load() || r.err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(r.done.Sub(r.sched).Nanoseconds())/1e6)
	}
	return out
}

// step returns phase p as a ladder step.
func (lr *loadRun) step(p int, done []atomic.Bool) ladderStep {
	return ladderStep{Rate: lr.phases[p].rate, Lat: lr.latencies(p, done),
		BacklogStart: lr.backlogStart[p], BacklogEnd: lr.backlogEnd[p]}
}

// lateness returns how late (ms) the generator put each request into
// the backlog after its due time: a run where this is large measured
// the generator, not the server.
func (lr *loadRun) lateness() []float64 {
	out := make([]float64, 0, len(lr.res))
	for i := range lr.res {
		out = append(out, float64(lr.res[i].late.Nanoseconds())/1e6)
	}
	return out
}

// ladder returns the service schedule: the nominal phase, then
// ladderClimbs climbs of the rate ladder. The first climb, of at most
// steps steps, starts at ladderFromCap of the capacity the nominal phase
// implies (connections ÷ median exchange time), and at least just above
// the nominal rate, so it reaches the knee in a few steps whatever the
// commit's speed; the implied capacity ignores the CPU client and server
// share, so the knee sits below it (0.65x on svc-tcp, 0.95x on svc-json
// at the seed commit).
//
// Two consecutive misses of the objective end a climb, judged once their
// requests have had a step to finish (any still in flight count as
// misses). In the first climb the first such pair may be a stall of the
// shared host rather than the knee: the ladder then idles one step for
// the backlog to drain and runs the two missed rates again. Each later
// climb, of at most laterSteps steps, idles one step and restarts at
// ladderRestart of the rate the first climb sustained, so it reaches the
// knee again in a few steps; where one climb lands on a step of luck or
// of stall, the median over climbs does not.
func ladder(rate, seconds float64, steps int) (nextPhase, int) {
	nominal := phase{rate, time.Duration(seconds * float64(time.Second)), 0}
	stepDur := time.Duration(ladderStepS * float64(time.Second))
	maxStart := ladderMaxStart * rate
	capacity := int(math.Ceil(rate*seconds)) + 1
	for k := 0; k < steps+2+(ladderClimbs-1)*(laterSteps+1); k++ {
		capacity += int(math.Ceil(maxStart*math.Pow(ladderFactor, float64(k))*ladderStepS)) + 1
	}
	climb, ran, retried, resume := 1, 0, false, 0.0
	first := 0.0 // the first climb's first rate
	miss := func(lr *loadRun, done []atomic.Bool, p int) bool {
		return lr.phases[p].climb == climb && lr.phases[p].rate > 0 && !stepMeets(lr.step(p, done), sloLimitMs)
	}
	// restart ends the current climb and starts the next, if any.
	restart := func(lr *loadRun, done []atomic.Bool) (phase, bool) {
		if steps == 0 || climb >= ladderClimbs {
			return phase{}, false
		}
		var met []ladderStep
		for p := range lr.phases {
			if lr.phases[p].climb == 1 && lr.phases[p].rate > 0 {
				met = append(met, lr.step(p, done))
			}
		}
		resume = first
		if slo := sloRate(met, sloLimitMs); slo > 0 {
			resume = ladderRestart * slo
		}
		climb, ran = climb+1, 0
		return phase{0, stepDur, climb}, true // idle: no requests
	}
	return func(lr *loadRun, done []atomic.Bool) (phase, bool) {
		p := len(lr.phases)
		next := phase{dur: stepDur, climb: climb}
		switch {
		case p == 0:
			return nominal, true
		case climb == 1 && ran >= steps, climb > 1 && ran >= laterSteps:
			return restart(lr, done)
		case p == 1:
			var ex []float64
			for i := range lr.res {
				if r := &lr.res[i]; r.phase == 0 && !r.sched.IsZero() && done[i].Load() && r.err == nil {
					ex = append(ex, r.done.Sub(r.sendAt).Seconds())
				}
			}
			next.rate = rate * ladderFactor
			if len(ex) > 0 {
				next.rate = max(next.rate, min(maxStart, ladderFromCap*float64(conns)/median(ex)))
			}
			first = next.rate
		case miss(lr, done, p-1) && miss(lr, done, p-2):
			if climb > 1 || retried {
				return restart(lr, done)
			}
			retried, resume = true, lr.phases[p-2].rate
			return phase{0, stepDur, climb}, true // idle: no requests
		case lr.phases[p-1].rate == 0:
			next.rate = resume
		default:
			next.rate = lr.phases[p-1].rate * ladderFactor
		}
		ran++
		return next, true
	}, capacity
}

// climbRates returns each ladder climb's sloRate, in climb order.
func climbRates(lr *loadRun) []float64 {
	var byClimb [][]ladderStep
	for p, ph := range lr.phases {
		if ph.climb == 0 || ph.rate == 0 {
			continue
		}
		for len(byClimb) < ph.climb {
			byClimb = append(byClimb, nil)
		}
		byClimb[ph.climb-1] = append(byClimb[ph.climb-1], lr.step(p, nil))
	}
	rates := make([]float64, len(byClimb))
	for c, steps := range byClimb {
		rates[c] = sloRate(steps, sloLimitMs)
	}
	return rates
}

// runService measures a service workload end to end: set-up (median of
// svcSetupRuns), then the open-loop nominal phase (p50, p99) and, with
// withLadder, the rate ladder (the highest rate meeting the objective)
// against one sortd.
func runService(cfg config, rep *report, tr *tracer, withLadder bool) error {
	w := cfg.w
	pool := requestPool(cfg.seed, svcPoolSize(w), w.keys, w.width, w.vals)

	var setups []float64
	var p *sortdProc
	for i := 0; i < svcSetupRuns; i++ {
		if p != nil {
			rep.check(p.stop())
		}
		var s float64
		var err error
		p, s, err = setupSortd(cfg, pool[0])
		rep.check(err)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}

	clients := make([]client, 0, conns)
	for i := 0; i < conns; i++ {
		c, err := p.dial(w.proto)
		if err != nil {
			p.stop()
			return err
		}
		clients = append(clients, c)
	}
	nSteps := ladderSteps
	if !withLadder {
		nSteps = 0
	}
	next, capacity := ladder(w.rate, cfg.seconds, nSteps)
	lr := runLoad(clients, pool, next, capacity, tr, "wire."+w.proto)
	for _, c := range clients {
		c.close()
	}
	for i := range lr.res {
		rep.check(lr.res[i].err)
	}
	rss, rssErr := peakRSSMiB(strconv.Itoa(p.cmd.Process.Pid))
	rep.check(p.stop())
	if rssErr != nil {
		return rssErr
	}

	lat := lr.latencies(0, nil)
	nominal := summarize(lat, 0.99)
	// p99 is taken per window of the nominal phase; the median of those
	// is reported, so one stall of the shared host does not set it.
	tail, tailQ := windowedTail(lat, int(w.rate*p99WindowS))
	climbs := climbRates(lr)
	slo := 0.0
	if len(climbs) > 0 {
		slo = median(climbs)
	}
	rep.set("setup_s", "s", median(setups), len(setups))
	rep.set("peak_rss_mb", "MiB", rss, 1)
	rep.set("p50_ms", "ms", nominal.P50, nominal.N)
	rep.set("p99_ms", "ms", tail, nominal.N)
	if withLadder {
		rep.set("mtps", "Mtuples/s", slo*float64(w.keys)/1e6, len(lr.res)-nominal.N)
		fmt.Printf("service proto=%s nominal_rps=%g slo_rps=%.2f climbs_rps=%.2f ladder_phases=%d send_late_p99_ms=%.3f\n",
			w.proto, w.rate, slo, climbs, len(lr.phases)-1, summarize(lr.lateness(), 0.99).Tail)
	}
	fmt.Printf("tail p99_ms %.6f ms q=%.4f n=%d (whole phase: %.3f ms at q=%.4f)\n",
		tail, tailQ, nominal.N, nominal.Tail, nominal.TailQ)
	return nil
}

// svcPoolSize is how many distinct requests a service run cycles
// through: enough that their inputs outgrow the L2 cache, few enough to
// encode in well under a second.
func svcPoolSize(w workload) int {
	if w.keys >= 1<<16 {
		return 32
	}
	return 128
}
