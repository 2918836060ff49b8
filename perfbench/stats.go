package main

import "sort"

// recorder collects the samples of every metric in a run.
type recorder struct {
	samples map[string][]float64
	units   map[string]string
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, units: map[string]string{}}
}

func (r *recorder) add(name, unit string, v float64) {
	r.samples[name] = append(r.samples[name], v)
	r.units[name] = unit
}

// median returns the median of vs, 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the "exclusive" method),
// so the spreads printed here match a Python computation over the same
// values. Fewer than two values give the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
