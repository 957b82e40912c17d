package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/causal"
	"repro/internal/logcheck"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// analyze is the analyze phase every workload shares: logcheck over the
// recorded sets, then the causal graph built from them. Workloads whose
// analysis takes milliseconds run it reps times and report the median.
func analyze(c *cycle, ck *checker, m *cycleMetrics, sets []*tracelog.Set, reps int) error {
	for i := 0; i < reps; i++ {
		if err := analyzeOnce(c, ck, m, sets); err != nil {
			return err
		}
	}
	return nil
}

func analyzeOnce(c *cycle, ck *checker, m *cycleMetrics, sets []*tracelog.Set) error {
	return c.phase("analyze", func() error {
		var rep *logcheck.Report
		c.span("logcheck", "logcheck.CheckWorld", func() {
			if len(sets) == 1 {
				rep = logcheck.CheckSet(sets[0])
			} else {
				rep = logcheck.CheckWorld(sets)
			}
		})
		ck.expect(rep.OK(), "recorded logs fail logcheck: %v", rep.Findings)
		var g *causal.Graph
		var err error
		c.span("causal", "causal.Build", func() { g, err = causal.Build(sets) })
		if err != nil {
			return err
		}
		m.layer["causal.nodes"] = float64(len(g.Nodes))
		m.layer["causal.edges"] = float64(len(g.Edges))
		return nil
	})
}

// logFigures are counts read from recorded log sets.
type logFigures struct {
	schedule, network, datagram int
	intervals, deliveries       int
	// events is the recorded critical events, from each set's final
	// vm-meta record.
	events uint64
}

func readLogs(sets []*tracelog.Set) (logFigures, error) {
	var f logFigures
	for _, s := range sets {
		f.schedule += s.Schedule.Size()
		f.network += s.Network.Size()
		f.datagram += s.Datagram.Size()
		var final uint64
		err := s.Schedule.Each(func(e tracelog.Entry) error {
			switch v := e.(type) {
			case *tracelog.Interval:
				f.intervals++
			case *tracelog.VMMeta:
				final = uint64(v.FinalGC)
			}
			return nil
		})
		if err != nil {
			return f, err
		}
		f.events += final
		err = s.Datagram.Each(func(e tracelog.Entry) error {
			if _, ok := e.(*tracelog.DatagramRecvEntry); ok {
				f.deliveries++
			}
			return nil
		})
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

func (f logFigures) total() int { return f.schedule + f.network + f.datagram }

// putLogFigures sets log_bytes, the tracelog byte counts and the interval
// rate.
func putLogFigures(m *cycleMetrics, f logFigures) {
	m.e2e["log_bytes"] = float64(f.total())
	m.layer["tracelog.schedule_bytes"] = float64(f.schedule)
	m.layer["tracelog.network_bytes"] = float64(f.network)
	m.layer["tracelog.datagram_bytes"] = float64(f.datagram)
	if f.events > 0 {
		m.layer["core.intervals_per_kevent"] = float64(f.intervals) / (float64(f.events) / 1000)
	}
}

// putObs sets the per-layer figures read from the program's own metrics:
// record-phase critical-section hold times and replay-phase turn waits.
func putObs(m *cycleMetrics, rec, rep []obs.Snapshot) {
	var gcHold, turnWait float64
	var waits, netEvents uint64
	for _, s := range rec {
		gcHold = max(gcHold, float64(s.GCHold.Quantile(0.99)))
		netEvents += s.NetworkEvents
	}
	for _, s := range rep {
		turnWait = max(turnWait, float64(s.TurnWait.Quantile(0.99)))
		waits += s.TurnWait.Count
	}
	m.layer["core.gc_hold_p99_ns"] = gcHold
	m.layer["core.turn_wait_p99_ns"] = turnWait
	m.layer["core.turn_wait_count"] = float64(waits)
	m.layer["djsock.net_events"] = float64(netEvents)
}

// finishLayers derives the span-based figures every workload shares:
// unattributed time per phase, the analyze layers, and call percentiles of
// djsock operations, checkpoints and WAL truncations.
func finishLayers(c *cycle, m *cycleMetrics) selfTimes {
	st := c.tr.selfTimes()
	if c.tr == nil {
		return st
	}
	for ph, v := range st.unattributed {
		m.layer["unattributed_s."+ph] = median(v)
	}
	runs := float64(len(c.phases["analyze"]))
	m.layer["logcheck.check_s"] = st.layer["logcheck@analyze"] / runs
	m.layer["causal.build_s"] = st.layer["causal@analyze"] / runs
	for key, durs := range st.calls {
		name, ph, _ := strings.Cut(key, "@")
		var metric string
		switch {
		case strings.HasPrefix(name, "djsock."):
			metric = fmt.Sprintf("%s_ns.%s", name, ph)
		case name == "checkpoint.Take" && ph == "record":
			metric = "checkpoint.take_ns"
		case name == "core.VM.TruncateWAL" && ph == "record":
			metric = "wal.truncate_ns"
		default:
			continue
		}
		m.layer[metric+".p50"] = quantileNs(durs, 0.50)
		m.layer[metric+".p99"] = quantileNs(durs, 0.99)
	}
	return st
}

// perEvent is a layer's self time per event in nanoseconds.
func perEvent(st selfTimes, layerAtPhase string, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return st.layer[layerAtPhase] * 1e9 / float64(events)
}

// allocDuring reports the bytes fn allocated.
func allocDuring(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// onOneProcessor runs fn with GOMAXPROCS set to 1. A recording made there
// has its interleaving set by the record-mode yields, so its log's size
// follows the inputs; on two cores it follows how the cores race for the
// turnstile, which moves with the host's load from run to run. Workloads
// whose two-core logs vary that way analyze such a recording.
func onOneProcessor(fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return fn()
}

// checkWorld counts a logcheck pass over the recorded sets of one run, with
// its cross-VM checks, as a check.
func checkWorld(ck *checker, what string, sets []*tracelog.Set) {
	rep := logcheck.CheckWorld(sets)
	ck.expect(rep.OK(), "%s logs fail logcheck: %v", what, rep.Findings)
}

// checkSet counts a logcheck pass over one recorded set as a check.
func checkSet(ck *checker, what string, set *tracelog.Set) {
	rep := logcheck.CheckSet(set)
	ck.expect(rep.OK(), "%s logs fail logcheck: %v", what, rep.Findings)
}
