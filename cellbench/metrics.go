package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"decorum/internal/obs"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// notReported stands in for a per-layer value whose source the tree does
// not expose (an absent counter) or that the workload never exercises.
const notReported = -1

// regSnap is one registry's counters and histogram buckets at an instant.
type regSnap struct {
	counters map[string]uint64
	hists    map[string]obs.HistogramSnapshot
}

// snapReg reads reg's counters and the histograms resolved by name when
// the cell was built (newCell).
func snapReg(reg *obs.Registry, hists map[string]*obs.Histogram) regSnap {
	s := regSnap{counters: reg.Snapshot().Counters, hists: make(map[string]obs.HistogramSnapshot, len(hists))}
	for name, h := range hists {
		s.hists[name] = h.Snapshot()
	}
	return s
}

// delta returns after − before for every counter and histogram present
// in after. A name absent from after stays absent: "not reported".
func delta(before, after regSnap) regSnap {
	out := regSnap{counters: make(map[string]uint64), hists: make(map[string]obs.HistogramSnapshot)}
	for name, v := range after.counters {
		out.counters[name] = v - before.counters[name]
	}
	for name, h := range after.hists {
		out.hists[name] = histDelta(h, before.hists[name])
	}
	return out
}

// view reads counters and histograms by name across several registries'
// deltas, summing counters and merging histograms. Names no registry
// has are collected in missing.
type view struct {
	regs    []regSnap
	missing map[string]bool
}

func (v *view) ctr(name string) (float64, bool) {
	var sum uint64
	found := false
	for _, r := range v.regs {
		if c, ok := r.counters[name]; ok {
			sum += c
			found = true
		}
	}
	if !found {
		v.missing[name] = true
	}
	return float64(sum), found
}

func (v *view) hist(name string) (obs.HistogramSnapshot, bool) {
	var out obs.HistogramSnapshot
	found := false
	for _, r := range v.regs {
		if h, ok := r.hists[name]; ok {
			out.Merge(h)
			found = true
		}
	}
	if !found {
		v.missing[name] = true
	}
	return out, found
}

// quantile returns the q-quantile of samples (nanoseconds), or
// notReported when there are none.
func quantile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return notReported
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[lo])
	}
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[lo+1])*frac
}

func us(ns float64) float64 {
	if ns == notReported {
		return notReported
	}
	return ns / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return notReported
	}
	return num / den
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
