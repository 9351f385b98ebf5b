package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
)

// The benchmark generates its own inputs from the seed and keeps the
// true answer to every query it asks: the program under test only ever
// sees the encoded bytes.

// Record encodings are fixed-width so the pre-map sampler's byte-position
// draws are uniform over records. A value is rendered with ten significant
// digits, zero-padded to valueWidth bytes; the oracle holds the value as
// it parses back from that text, so references are exact.
const (
	valueWidth = 18
	numKeys    = 64
)

// File kinds.
const (
	kindGauss  = "gauss"  // N(100, 10), one value per line
	kindPareto = "pareto" // Pareto(α=1.5, xm=1), one value per line
	kindKV     = "kv"     // "kNN\tvalue", 64 uniform keys, value N(50+k, 10)
)

// dataset is one generated file and the values it holds, in file order.
type dataset struct {
	kind string
	vals []float64
	keys []uint8 // kv only: key index of each record

	sorted []float64 // sorted copy of vals[:len(sorted)], extended by merging

	// Answers are graded again and again at the same file state, so the
	// references are kept by statistic, filter and record count.
	refs   map[refKey]float64
	groups map[int]map[string]float64
}

type refKey struct {
	stat, filter string
	n            int
}

// generator draws a file kind's records from one seeded stream, so the
// base file and every later append batch come from the same sequence.
type generator struct {
	kind string
	rng  *rand.Rand
}

func newGenerator(kind string, seed uint64, stream uint64) *generator {
	return &generator{kind: kind, rng: rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d^stream))}
}

// next renders n records, returning the encoded bytes and the values and
// keys as the program will parse them.
func (g *generator) next(n int) ([]byte, []float64, []uint8) {
	width := valueWidth + 1
	if g.kind == kindKV {
		width += 4
	}
	buf := make([]byte, 0, n*width)
	vals := make([]float64, n)
	var keys []uint8
	if g.kind == kindKV {
		keys = make([]uint8, n)
	}
	var tmp [32]byte
	for i := 0; i < n; i++ {
		var v float64
		switch g.kind {
		case kindGauss:
			v = 100 + 10*g.rng.NormFloat64()
		case kindPareto:
			v = 1 / math.Pow(1-g.rng.Float64(), 1/1.5)
		case kindKV:
			k := uint8(g.rng.IntN(numKeys))
			keys[i] = k
			v = 50 + float64(k) + 10*g.rng.NormFloat64()
			buf = append(buf, 'k', '0'+k/10, '0'+k%10, '\t')
		}
		if v <= 0 {
			v = 1e-3 // keeps every record positive, so widths never change
		}
		txt := strconv.AppendFloat(tmp[:0], v, 'e', 9, 64)
		for pad := valueWidth - len(txt); pad > 0; pad-- {
			buf = append(buf, '0')
		}
		buf = append(buf, txt...)
		buf = append(buf, '\n')
		parsed, err := strconv.ParseFloat(string(txt), 64)
		if err != nil {
			panic(err) // AppendFloat output always parses
		}
		vals[i] = parsed
	}
	return buf, vals, keys
}

// add appends a batch of records to the dataset's oracle state. Files
// only grow, so the state after any append is a prefix of the values.
func (d *dataset) add(vals []float64, keys []uint8) {
	d.vals = append(d.vals, vals...)
	d.keys = append(d.keys, keys...)
}

// bytes is what the values and keys hold, with their spare capacity.
// The sorted copy and the cached references are built only when
// answers are graded, after the timed phase.
func (d *dataset) bytes() int64 {
	return int64(cap(d.vals))*8 + int64(cap(d.keys))
}

// population returns the values a query over the first n records sees:
// every value, or the ones that pass keep.
func (d *dataset) population(n int, keep func(float64) bool) []float64 {
	if keep == nil {
		return d.vals[:n]
	}
	var out []float64
	for _, v := range d.vals[:n] {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// sortedPrefix returns the first n values in ascending order. Growing
// prefixes, the order appends are checked in, cost one merge each.
func (d *dataset) sortedPrefix(n int) []float64 {
	if n < len(d.sorted) {
		s := append([]float64(nil), d.vals[:n]...)
		sort.Float64s(s)
		return s
	}
	if n > len(d.sorted) {
		tail := append([]float64(nil), d.vals[len(d.sorted):n]...)
		sort.Float64s(tail)
		merged := make([]float64, 0, n)
		i, j := 0, 0
		for i < len(d.sorted) && j < len(tail) {
			if d.sorted[i] <= tail[j] {
				merged = append(merged, d.sorted[i])
				i++
			} else {
				merged = append(merged, tail[j])
				j++
			}
		}
		merged = append(merged, d.sorted[i:]...)
		d.sorted = append(merged, tail[j:]...)
	}
	return d.sorted
}

// reference is the true value of one statistic, named as the program's
// canonical job names, over the first n records of the file, filtered by
// keep when filter names one.
func (d *dataset) reference(stat, filter string, keep func(float64) bool, n int) (float64, error) {
	k := refKey{stat, filter, n}
	if v, ok := d.refs[k]; ok {
		return v, nil
	}
	v, err := d.compute(stat, keep, n)
	if err == nil {
		if d.refs == nil {
			d.refs = map[refKey]float64{}
		}
		d.refs[k] = v
	}
	return v, err
}

func (d *dataset) compute(stat string, keep func(float64) bool, n int) (float64, error) {
	pop := d.population(n, keep)
	if len(pop) == 0 {
		return 0, errors.New("empty population")
	}
	switch stat {
	case "mean":
		return sum(pop) / float64(len(pop)), nil
	case "sum":
		return sum(pop), nil
	case "count":
		return float64(len(pop)), nil
	}
	var q float64
	if _, err := fmt.Sscanf(stat, "quantile-%g", &q); err != nil {
		return 0, fmt.Errorf("no reference for statistic %q", stat)
	}
	var s []float64
	if keep == nil {
		s = d.sortedPrefix(n)
	} else {
		s = append([]float64(nil), pop...)
		sort.Float64s(s)
	}
	return quantileType7(s, q), nil
}

// groupMeans is the true per-key mean of the first n records of a kv
// file.
func (d *dataset) groupMeans(n int) map[string]float64 {
	if g, ok := d.groups[n]; ok {
		return g
	}
	var sums [numKeys]float64
	var counts [numKeys]int
	for i, v := range d.vals[:n] {
		sums[d.keys[i]] += v
		counts[d.keys[i]]++
	}
	out := make(map[string]float64, numKeys)
	for k := 0; k < numKeys; k++ {
		if counts[k] > 0 {
			out[keyName(k)] = sums[k] / float64(counts[k])
		}
	}
	if d.groups == nil {
		d.groups = map[int]map[string]float64{}
	}
	d.groups[n] = out
	return out
}

func keyName(k int) string { return fmt.Sprintf("k%02d", k) }

// sum adds with Neumaier compensation, so the reference does not depend
// on summation order.
func sum(xs []float64) float64 {
	var s, c float64
	for _, x := range xs {
		t := s + x
		if math.Abs(s) >= math.Abs(x) {
			c += (s - t) + x
		} else {
			c += (x - t) + s
		}
		s = t
	}
	return s + c
}

// quantileType7 is the linear-interpolation quantile of sorted data.
func quantileType7(s []float64, q float64) float64 {
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
