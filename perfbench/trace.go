package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark makes into a layer of the program.
// Phase spans are roots; layer spans name the phase span they ran under.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is tracing
// off: every method is a no-op that reads no clock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (tr *tracer) begin(layer, name string, parent int) int {
	if tr == nil {
		return -1
	}
	now := int64(time.Since(tr.epoch))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Layer: layer, Name: name, Start: now, End: now, Parent: parent})
	return len(tr.spans) - 1
}

// end closes the span begin returned.
func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	now := int64(time.Since(tr.epoch))
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// write saves the spans as JSON.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes reduces the spans to the figures the per-layer metrics are made
// of. A span's self time is its duration minus the part of it that its child
// spans cover; a phase span's self time is the phase's unattributed time.
type selfTimes struct {
	// layer is self seconds keyed "layer@phase", summed over spans.
	layer map[string]float64
	// calls is span durations in nanoseconds keyed "name@phase".
	calls map[string][]int64
	// unattributed is each phase's self seconds, one value per run.
	unattributed map[string][]float64
}

func (tr *tracer) selfTimes() selfTimes {
	st := selfTimes{layer: map[string]float64{}, calls: map[string][]int64{}, unattributed: map[string][]float64{}}
	if tr == nil {
		return st
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make([][]int, len(tr.spans))
	for i, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	phaseOf := func(i int) string {
		for tr.spans[i].Parent >= 0 {
			i = tr.spans[i].Parent
		}
		return tr.spans[i].Name
	}
	for i, s := range tr.spans {
		self := float64(s.End-s.Start-covered(tr.spans, children[i], s.Start, s.End)) / 1e9
		if s.Parent < 0 {
			st.unattributed[s.Name] = append(st.unattributed[s.Name], self)
			continue
		}
		ph := phaseOf(i)
		st.layer[s.Layer+"@"+ph] += self
		st.calls[s.Name+"@"+ph] = append(st.calls[s.Name+"@"+ph], s.End-s.Start)
	}
	return st
}

// covered is the length of the union of the given spans, clipped to
// [lo, hi). Children of one span may overlap when they ran on different
// threads.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// cycle is one pass over a workload's phases. It times every phase whether
// or not tracing is on, and opens layer spans under the current phase.
type cycle struct {
	tr *tracer
	// phases holds wall seconds per phase; a phase run several times in one
	// cycle has several values, reduced by their median.
	phases map[string][]float64
	cur    int
}

func newCycle(tr *tracer) *cycle {
	return &cycle{tr: tr, phases: map[string][]float64{}, cur: -1}
}

// phase runs fn as one timed run of the named phase, after a collection so
// garbage from earlier phases is not charged to it.
func (c *cycle) phase(name string, fn func() error) error {
	collect()
	c.cur = c.tr.begin("phase", name, -1)
	start := time.Now()
	err := fn()
	c.phases[name] = append(c.phases[name], time.Since(start).Seconds())
	c.tr.end(c.cur)
	c.cur = -1
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// span times fn as a call into a layer, under the current phase.
func (c *cycle) span(layer, name string, fn func()) {
	id := c.tr.begin(layer, name, c.cur)
	fn()
	c.tr.end(id)
}

// nest times fn as a call into a layer whose own layer calls, made inside
// fn, are its child spans.
func (c *cycle) nest(layer, name string, fn func()) {
	id := c.tr.begin(layer, name, c.cur)
	outer := c.cur
	if c.tr != nil {
		c.cur = id
	}
	fn()
	c.cur = outer
	c.tr.end(id)
}

// seconds is the phase's wall time, the median of its runs in this cycle.
func (c *cycle) seconds(name string) float64 { return median(c.phases[name]) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileNs is the nearest-rank q-quantile of durations in nanoseconds.
func quantileNs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s))+0.999999) - 1
	return float64(s[min(max(rank, 0), len(s)-1)])
}
