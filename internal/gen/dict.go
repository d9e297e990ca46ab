package gen

import (
	"fmt"
	"slices"

	"repro/internal/kv"
)

// Dictionary is an order-preserving dictionary (Section 4.1 / [12, 16]):
// it maps a sparse or non-integer key domain onto the dense integer domain
// [0, Cardinality()), preserving order so that sorting codes sorts the
// original values. Analytical systems build such dictionaries at load time;
// radix-sorting the codes is then equivalent to sorting the values.
type Dictionary[K kv.Key] struct {
	values []K // sorted distinct values; code = index
}

// BuildDictionary constructs a dictionary over the distinct values of keys.
func BuildDictionary[K kv.Key](keys []K) *Dictionary[K] {
	sorted := append([]K(nil), keys...)
	slices.Sort(sorted)
	distinct := sorted[:0]
	for i, k := range sorted {
		if i == 0 || k != distinct[len(distinct)-1] {
			distinct = append(distinct, k)
		}
	}
	vals := append([]K(nil), distinct...) // release the oversized backing array
	return &Dictionary[K]{values: vals}
}

// Cardinality returns the number of distinct values, i.e. the size of the
// dense code domain.
func (d *Dictionary[K]) Cardinality() int {
	return len(d.values)
}

// Encode returns the dense code of value k, or an error if k was not in the
// dictionary's build set.
func (d *Dictionary[K]) Encode(k K) (K, error) {
	i, found := slices.BinarySearch(d.values, k)
	if !found {
		return 0, fmt.Errorf("gen: value %v not in dictionary", k)
	}
	return K(i), nil
}

// Decode returns the original value of a code.
func (d *Dictionary[K]) Decode(code K) (K, error) {
	if int(code) >= len(d.values) {
		return 0, fmt.Errorf("gen: code %v out of range [0,%d)", code, len(d.values))
	}
	return d.values[code], nil
}

// EncodeAll encodes a whole column. Every key must be in the dictionary.
func (d *Dictionary[K]) EncodeAll(keys []K) ([]K, error) {
	out := make([]K, len(keys))
	for i, k := range keys {
		c, err := d.Encode(k)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// DecodeAll decodes a whole column of codes.
func (d *Dictionary[K]) DecodeAll(codes []K) ([]K, error) {
	out := make([]K, len(codes))
	for i, c := range codes {
		v, err := d.Decode(c)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
