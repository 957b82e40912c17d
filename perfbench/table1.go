package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// table1-closed: the paper's §6 closed-world client/server (internal/bench),
// two DJVMs with two threads each, its shared-variable loop scaled up so a
// phase lasts long enough to time. The racy loops live inside the program,
// so the core span is the whole bench.Run call: with ~5 million critical events
// against ~10^2 network events, the run is the turnstile's work.
const table1LoopScale = 5

func table1Params(seed int64, scale float64) bench.Params {
	p := bench.ClosedParams(2)
	p.BaseSharedIters = int(float64(p.BaseSharedIters*table1LoopScale) * scale)
	p.PerThreadSharedIters = int(float64(p.PerThreadSharedIters*table1LoopScale) * scale)
	p.Seed = seed
	return p
}

func runTable1(seed int64, scale float64, c *cycle, ck *checker) (*cycleMetrics, error) {
	p := table1Params(seed, scale)
	m := newMetrics()
	call := func(phase string, fn func() (bench.RunResult, error)) (bench.RunResult, error) {
		var res bench.RunResult
		err := c.phase(phase, func() error {
			var err error
			c.span("core", "bench.Run", func() { res, err = fn() })
			return err
		})
		return res, err
	}

	if _, err := call("plain", func() (bench.RunResult, error) { return bench.RunBaseline(p) }); err != nil {
		return nil, err
	}
	var rec bench.RunResult
	recAlloc, err := allocDuring(func() (err error) {
		rec, err = call("record", func() (bench.RunResult, error) { return bench.RunClosed(p, ids.Record, nil, nil) })
		return err
	})
	if err != nil {
		return nil, err
	}
	sets := []*tracelog.Set{rec.ServerLogs, rec.ClientLogs}
	if err := indexPhase(c, map[ids.DJVMID]*tracelog.Set{bench.ServerID: rec.ServerLogs, bench.ClientID: rec.ClientLogs}); err != nil {
		return nil, err
	}
	rep, err := call("replay", func() (bench.RunResult, error) {
		return bench.RunClosed(p, ids.Replay, rec.ServerLogs, rec.ClientLogs)
	})
	if err != nil {
		return nil, err
	}
	ck.expect(rep.Server.Outcome == rec.Server.Outcome, "server replayed %v, recorded %v", rep.Server.Outcome, rec.Server.Outcome)
	ck.expect(rep.Client.Outcome == rec.Client.Outcome, "client replayed %v, recorded %v", rep.Client.Outcome, rec.Client.Outcome)
	checkWorld(ck, "recorded", sets)
	// The analyzed logs are one more recording, made untimed on one
	// processor, where the 1-in-2000 record jitter sets the interleaving.
	var one bench.RunResult
	err = onOneProcessor(func() (err error) {
		one, err = bench.RunClosed(p, ids.Record, nil, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := analyze(c, ck, m, []*tracelog.Set{one.ServerLogs, one.ClientLogs}, 10); err != nil {
		return nil, err
	}

	for _, ph := range []string{"plain", "record", "replay", "analyze"} {
		m.e2e[ph+"_s"] = c.seconds(ph)
	}
	recEvents := rec.Server.CriticalEvents + rec.Client.CriticalEvents
	f, err := readLogs(sets)
	if err != nil {
		return nil, err
	}
	putLogFigures(m, f)
	st := finishLayers(c, m)
	putObs(m, []obs.Snapshot{rec.Server.Obs, rec.Client.Obs}, []obs.Snapshot{rep.Server.Obs, rep.Client.Obs})
	m.layer["core.record_ns_per_event"] = perEvent(st, "core@record", recEvents)
	m.layer["core.replay_ns_per_event"] = perEvent(st, "core@replay", rep.Server.CriticalEvents+rep.Client.CriticalEvents)
	m.layer["core.alloc_bytes_per_event"] = float64(recAlloc) / float64(recEvents)
	m.layer["tracelog.index_s"] = st.layer["tracelog@index"]
	return m, nil
}

// indexPhase times replay-mode core.NewVM, which builds the schedule,
// network and datagram indexes, for workloads whose replay VMs are made
// inside the program. The VMs are closed unstarted.
func indexPhase(c *cycle, sets map[ids.DJVMID]*tracelog.Set) error {
	return c.phase("index", func() error {
		for id, set := range sets {
			var vm *core.VM
			var err error
			c.span("tracelog", "core.NewVM", func() {
				vm, err = core.NewVM(core.Config{ID: id, Mode: ids.Replay, World: ids.ClosedWorld, ReplayLogs: set})
			})
			if err != nil {
				return fmt.Errorf("vm %d: %w", id, err)
			}
			vm.Close()
		}
		return nil
	})
}
