package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// obj-contend: one VM, two threads. Each thread increments its own
// registered SharedInt; every objShareEvery-th iteration it also increments
// one shared registered SharedInt. The turnstile is all of the work, and the
// share of iterations touching the common object is the input property
// sharded order depends on.
const (
	objIters      = 400_000 // iterations per thread at scale 1
	objShareEvery = 16
	// objBatch is iterations per core span: a clock read costs about as
	// much as a critical event, so spans cover batches, not calls.
	objBatch = 4096
	// In traced replays one call in parkSampleEvery is timed on its own, and
	// calls slower than parkThreshold count as parked. Obs times turn waits
	// at the same 1-in-64 rate (core.ObsSampleDefault).
	parkSampleEvery = 64
	parkThreshold   = 2 * time.Microsecond
	objVM           = ids.DJVMID(44)
	// objJitter yields the processor after one record-mode event in
	// objJitter, which keeps intervals short. With two threads on two cores
	// the natural lock hand-off alone makes the interval count, and with it
	// the log, vary several-fold between cycles; the yields narrow that.
	objJitter = 16
	// objGlobalRounds is global-order record-replay rounds per cycle.
	objGlobalRounds = 3
)

// paddedInt keeps each counter on its own cache lines, so the threads'
// private counters do not share one.
type paddedInt struct {
	core.SharedInt
	_ [128]byte
}

type objInputs struct {
	iters  int
	init   [3]int64 // own counters of threads 0 and 1, then the shared one
	offset [2]int   // which iterations of each thread touch the shared counter
}

func newObjInputs(seed int64, scale float64) objInputs {
	rng := rand.New(rand.NewSource(seed))
	in := objInputs{iters: max(int(objIters*scale), objBatch)}
	for i := range in.init {
		in.init[i] = rng.Int63n(1 << 30)
	}
	for i := range in.offset {
		in.offset[i] = rng.Intn(objShareEvery)
	}
	return in
}

func (in objInputs) touchesShared(thread, i int) bool {
	return (i+in.offset[thread])%objShareEvery == 0
}

// want is the sequential model of the final counter values.
func (in objInputs) want() [3]int64 {
	w := in.init
	for t := 0; t < 2; t++ {
		w[t] += int64(in.iters)
		for i := 0; i < in.iters; i++ {
			if in.touchesShared(t, i) {
				w[2]++
			}
		}
	}
	return w
}

type objRun struct {
	finals [3]int64
	events uint64
	parked int
	snap   obs.Snapshot
	logs   *tracelog.Set
}

// objOnce runs the workload once on a fresh VM.
func objOnce(c *cycle, in objInputs, mode ids.Mode, order ids.OrderMode, logs *tracelog.Set) (*objRun, error) {
	var vm *core.VM
	var err error
	c.span("tracelog", "core.NewVM", func() {
		vm, err = core.NewVM(core.Config{
			ID: objVM, Mode: mode, OrderMode: order, ReplayLogs: logs,
			RecordJitter: objJitter, StallTimeout: 30 * time.Second,
		})
	})
	if err != nil {
		return nil, err
	}
	vars := make([]paddedInt, 3)
	for i := range vars {
		vars[i].Register(vm)
		vars[i].Restore(in.init[i])
	}
	timeCalls := c.tr != nil && mode == ids.Replay
	var parked [2]int
	vm.Start(func(main *core.Thread) {
		kids := make([]*core.Thread, 2)
		for ti := range kids {
			ti := ti
			kids[ti] = main.Spawn(func(t *core.Thread) {
				own, shared := &vars[ti], &vars[2]
				for lo := 0; lo < in.iters; lo += objBatch {
					id := c.tr.begin("core", "core.SharedInt.Add", c.cur)
					for i := lo; i < min(lo+objBatch, in.iters); i++ {
						if timeCalls && i%parkSampleEvery == 0 {
							start := time.Now()
							own.Add(t, 1)
							if time.Since(start) > parkThreshold {
								parked[ti]++
							}
						} else {
							own.Add(t, 1)
						}
						if in.touchesShared(ti, i) {
							shared.Add(t, 1)
						}
					}
					c.tr.end(id)
				}
			})
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	vm.Wait()
	vm.Close()
	r := &objRun{events: vm.Stats().CriticalEvents, parked: parked[0] + parked[1], snap: vm.Metrics().Snapshot(), logs: vm.Logs()}
	for i := range vars {
		r.finals[i] = vars[i].Load()
	}
	return r, nil
}

func runObj(seed int64, scale float64, c *cycle, ck *checker) (*cycleMetrics, error) {
	in := newObjInputs(seed, scale)
	want := in.want()
	m := newMetrics()
	run := func(phase string, mode ids.Mode, order ids.OrderMode, logs *tracelog.Set) (*objRun, error) {
		var r *objRun
		err := c.phase(phase, func() error {
			var err error
			r, err = objOnce(c, in, mode, order, logs)
			return err
		})
		if err != nil {
			return nil, err
		}
		ck.expect(r.finals == want, "%s: final values %v, want %v", phase, r.finals, want)
		return r, nil
	}

	if _, err := run("plain", ids.Passthrough, ids.OrderGlobal, nil); err != nil {
		return nil, err
	}
	// The global schedule, and with it the log, varies between recordings:
	// objGlobalRounds record-replay rounds per cycle give its medians more
	// samples.
	var recs, reps []*objRun
	var recAlloc, recEvents, repEvents uint64
	var figs []logFigures
	for i := 0; i < objGlobalRounds; i++ {
		var rec *objRun
		alloc, err := allocDuring(func() (err error) {
			rec, err = run("record", ids.Record, ids.OrderGlobal, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep, err := run("replay", ids.Replay, ids.OrderGlobal, rec.logs)
		if err != nil {
			return nil, err
		}
		ck.expect(rep.events == rec.events, "replay ran %d events, record %d", rep.events, rec.events)
		checkSet(ck, "global record", rec.logs)
		f, err := readLogs([]*tracelog.Set{rec.logs})
		if err != nil {
			return nil, err
		}
		recs, reps, figs = append(recs, rec), append(reps, rep), append(figs, f)
		recAlloc, recEvents, repEvents = recAlloc+alloc, recEvents+rec.events, repEvents+rep.events
	}
	// The analyzed log is one more recording, made untimed on one
	// processor, where the yields (one event in objJitter) set the
	// interleaving.
	var one *objRun
	err := onOneProcessor(func() (err error) {
		one, err = objOnce(newCycle(nil), in, ids.Record, ids.OrderGlobal, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	ck.expect(one.finals == want, "one-processor record: final values %v, want %v", one.finals, want)
	if err := analyze(c, ck, m, []*tracelog.Set{one.logs}, 1); err != nil {
		return nil, err
	}

	srec, err := run("record.sharded", ids.Record, ids.OrderSharded, nil)
	if err != nil {
		return nil, err
	}
	srep, err := run("replay.sharded", ids.Replay, ids.OrderSharded, srec.logs)
	if err != nil {
		return nil, err
	}
	ck.expect(srep.events == srec.events, "sharded replay ran %d events, record %d", srep.events, srec.events)
	checkSet(ck, "sharded record", srec.logs)

	for _, ph := range []string{"plain", "record", "replay", "analyze"} {
		m.e2e[ph+"_s"] = c.seconds(ph)
	}
	m.e2e["record_s.sharded"] = c.seconds("record.sharded")
	m.e2e["replay_s.sharded"] = c.seconds("replay.sharded")
	sort.Slice(figs, func(i, j int) bool { return figs[i].total() < figs[j].total() })
	putLogFigures(m, figs[len(figs)/2])

	st := finishLayers(c, m)
	var recSnaps, repSnaps []obs.Snapshot
	parked := 0
	for i := range recs {
		recSnaps, repSnaps = append(recSnaps, recs[i].snap), append(repSnaps, reps[i].snap)
		parked += reps[i].parked
	}
	putObs(m, recSnaps, repSnaps)
	m.layer["core.record_ns_per_event"] = perEvent(st, "core@record", recEvents)
	m.layer["core.replay_ns_per_event"] = perEvent(st, "core@replay", repEvents)
	m.layer["core.record_ns_per_event.sharded"] = perEvent(st, "core@record.sharded", srec.events)
	m.layer["core.replay_ns_per_event.sharded"] = perEvent(st, "core@replay.sharded", srep.events)
	m.layer["core.parked_calls"] = float64(parked)
	m.layer["core.obj_runs"] = float64(srec.snap.Shard.ObjRuns)
	m.layer["core.shard_contended"] = float64(srec.snap.Shard.Contended)
	m.layer["core.alloc_bytes_per_event"] = float64(recAlloc) / float64(recEvents)
	m.layer["tracelog.index_s"] = st.layer["tracelog@replay"] / objGlobalRounds
	return m, nil
}
