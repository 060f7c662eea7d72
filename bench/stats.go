package main

import (
	"bufio"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// minSamples is how many samples percentile q needs: at least ten beyond
// it, so p50 needs 20 and p95 needs 200.
func minSamples(q float64) int {
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of xs, refusing when fewer
// than ten samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	if need := minSamples(q); len(xs) < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*q, need, len(xs))
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(math.Ceil(q*float64(len(s))))-1], nil
}

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// ratio is num/den, 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// exposition is a parsed Prometheus text exposition: series -> value.
type exposition map[string]float64

func parseExposition(text string) exposition {
	out := exposition{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of the named family, whatever its labels.
func (e exposition) sum(name string) float64 {
	total := 0.0
	for series, v := range e {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta is the growth of a family between two scrapes.
func delta(before, after exposition, name string) float64 {
	return after.sum(name) - before.sum(name)
}
