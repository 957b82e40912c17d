package core

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// turnstile is the DJVM's ordering engine (§2.2): a sequence counter, the
// record lock that makes counter update and event execution one atomic
// operation, run-length recording of maximal runs of consecutive counter
// values by one thread, and the replay gate that admits each event when the
// counter reaches its recorded value.
//
// Every VM embeds one: the global order, whose counter is the paper's global
// counter, whose record lock is the GC-critical section, and whose runs are
// the logical schedule intervals. Under OrderSharded each registered shared
// object gets a turnstile of its own — distributed order recording after Fu
// et al. — so threads touching disjoint objects record and replay
// concurrently: any two conflicting events touch the same object and are
// ordered by its counter, and cross-object order follows transitively from
// each thread's program order. Events with no registered object (network,
// environment, thread lifecycle, checkpoints, unregistered objects such as a
// Barrier's monitor) stay on the global order. A thread waits on at most one
// turnstile at a time, and every turnstile assigns counters at event
// completion, so the orders compose.
//
// Registration contract: objects must be registered in a deterministic order
// — the same in the record and the replay run — and before the threads that
// access them start. An object's identity across phases is its registration
// rank, the way a thread's is its creation rank.
type turnstile struct {
	vm  *VM
	num int // dense turnstile number: 0 is the global order, 1+k is object k

	// mu is the record lock and, in replay, guards waiters. It is never held
	// across a blocking operation and never nested with another turnstile's.
	mu sync.Mutex
	// clock is the counter: the next value to assign in record mode, the
	// value currently admitted in replay mode.
	clock atomic.Uint64

	// The open run, guarded by mu (record mode).
	runOpen   bool
	runThread ids.ThreadNum
	runFirst  ids.GCount
	runLast   ids.GCount

	// Replay: successor-directed wakeup. Each parked thread registers under
	// the value it awaits; the recorded order gives every value to one thread,
	// so advancing the counter wakes exactly the successor (the stall
	// broadcast is the only all-waiter wakeup). waiters is guarded by mu;
	// parked counts registered threads and is the lock-free path's cue to
	// take mu and hand over the turn. runs holds each thread's recorded runs
	// and is read-only.
	waiters map[ids.GCount]*Thread
	parked  atomic.Int64
	runs    map[ids.ThreadNum][]tracelog.Interval
}

// init binds the turnstile to vm as number num, loading its recorded runs in
// replay mode.
func (ts *turnstile) init(vm *VM, num int) {
	ts.vm, ts.num = vm, num
	if vm.mode != ids.Replay {
		return
	}
	ts.waiters = make(map[ids.GCount]*Thread)
	if num == 0 {
		ts.runs = vm.schedIdx.Intervals
		return
	}
	ts.runs = make(map[ids.ThreadNum][]tracelog.Interval)
	for _, r := range vm.schedIdx.ObjRuns[ts.obj()] {
		ts.runs[r.Thread] = append(ts.runs[r.Thread], tracelog.Interval{Thread: r.Thread, First: ids.GCount(r.First), Last: ids.GCount(r.Last)})
	}
}

// The keying of records in the log is the turnstile's alone: the global order
// keys by counter value (Interval, Notify, TimedWaitEntry), an object by
// ⟨object, access sequence⟩ (ObjRun, ObjNotify, ObjTimedWait).

func (ts *turnstile) obj() ids.ObjectID { return ids.ObjectID(ts.num - 1) }

// at names counter value seq of this order for diagnostics.
func (ts *turnstile) at(seq ids.GCount) string {
	if ts.num == 0 {
		return fmt.Sprintf("counter %d", seq)
	}
	return fmt.Sprintf("%v access %d", ts.obj(), seq)
}

func (ts *turnstile) notifyEntry(seq ids.GCount, woken []ids.ThreadNum) tracelog.Entry {
	if ts.num == 0 {
		return &tracelog.Notify{GC: seq, Woken: woken}
	}
	return &tracelog.ObjNotify{Obj: ts.obj(), Seq: ids.AccessSeq(seq), Woken: woken}
}

func (ts *turnstile) notified(seq ids.GCount) []ids.ThreadNum {
	if ts.num == 0 {
		return ts.vm.schedIdx.Notifies[seq]
	}
	return ts.vm.schedIdx.ObjNotifies[tracelog.ObjEvent{Obj: ts.obj(), Seq: ids.AccessSeq(seq)}]
}

func (ts *turnstile) timedWaitEntry(seq ids.GCount, check, timedOut bool) tracelog.Entry {
	if ts.num == 0 {
		return &tracelog.TimedWaitEntry{GC: seq, Check: check, TimedOut: timedOut}
	}
	return &tracelog.ObjTimedWait{Obj: ts.obj(), Seq: ids.AccessSeq(seq), Check: check, TimedOut: timedOut}
}

func (ts *turnstile) timedWait(seq ids.GCount) (check, timedOut, ok bool) {
	if ts.num == 0 {
		e, ok := ts.vm.schedIdx.TimedWaits[seq]
		return e.Check, e.TimedOut, ok
	}
	e, ok := ts.vm.schedIdx.ObjTimedWaits[tracelog.ObjEvent{Obj: ts.obj(), Seq: ids.AccessSeq(seq)}]
	return e.Check, e.TimedOut, ok
}

// flushRunLocked appends the open run, if any, to the schedule log. Caller
// holds mu, so append order is counter order.
func (ts *turnstile) flushRunLocked() {
	if !ts.runOpen {
		return
	}
	ts.runOpen = false
	m := ts.vm.metrics
	if ts.num == 0 {
		ts.vm.logs.Schedule.Append(&tracelog.Interval{Thread: ts.runThread, First: ts.runFirst, Last: ts.runLast})
		m.IncInterval()
		return
	}
	ts.vm.logs.Schedule.Append(&tracelog.ObjRun{Obj: ts.obj(), Thread: ts.runThread, First: ids.AccessSeq(ts.runFirst), Last: ids.AccessSeq(ts.runLast)})
	m.IncObjRun()
}

// record is the critical section of the record phase: counter update and
// event execution as one atomic operation (§2.2). The deferred unlock keeps
// the turnstile consistent when op panics (e.g. a MonitorStateError the
// application recovers from): the counter has not ticked and no run was
// extended, as if the event never happened. The observer, durability notes
// and timestamps only ever fire on the global order: NewVM and the Enable
// methods refuse them when objects can have turnstiles of their own.
func (ts *turnstile) record(t *Thread, kind obs.EventKind, op func(seq ids.GCount)) {
	vm := ts.vm
	fast := ts.mu.TryLock()
	if !fast {
		ts.mu.Lock()
	}
	defer ts.mu.Unlock()
	seq := ids.GCount(ts.clock.Load())
	ts.exec(t, kind, seq, op, fast)
	if ts.runOpen && ts.runThread == t.num {
		ts.runLast = seq
	} else {
		ts.flushRunLocked()
		ts.runThread, ts.runFirst, ts.runLast, ts.runOpen = t.num, seq, seq, true
	}
	after := uint64(seq) + 1
	if vm.noteEvery != 0 && after%vm.noteEvery == 0 {
		vm.noteOpenRunLocked()
	}
	if vm.tsEvery != 0 && after%vm.tsEvery == 0 {
		vm.appendTimestampLocked(ids.GCount(after))
	}
}

// exec executes op as the event admitted at seq and advances the counter
// past it. fast reports that the event took its turn without waiting.
func (ts *turnstile) exec(t *Thread, kind obs.EventKind, seq ids.GCount, op func(seq ids.GCount), fast bool) {
	vm := ts.vm
	sampled := uint64(seq)&vm.sampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	op(seq)
	if vm.observer != nil {
		vm.observer(t.num, seq)
	}
	if sampled {
		vm.metrics.ObserveGCHold(time.Since(start))
	}
	after := uint64(seq) + 1
	ts.clock.Store(after)
	// The global order moves the clock gauge, an object order its
	// uncontended/contended split.
	if ts.num == 0 {
		vm.metrics.IncEvent(kind, after)
	} else {
		vm.metrics.IncShardEvent(kind, fast)
	}
	t.progSeq++
}

// replay waits for the event's turn, executes it, and advances the counter
// (§2.2).
//
// With no EventObserver the admitted thread runs without mu: the recorded
// order admits exactly one thread per counter value, so until this thread
// advances the counter no other thread may execute an event of this order —
// the schedule itself is the mutual exclusion. mu is then taken only to park
// (await) and to hand the wake token to a parked successor.
func (ts *turnstile) replay(t *Thread, kind obs.EventKind, seq ids.GCount, op func(seq ids.GCount)) {
	if ts.vm.observer != nil {
		ts.replayObserved(t, kind, seq, op)
		return
	}
	fast := ids.GCount(ts.clock.Load()) == seq
	if !fast {
		ts.await(t, seq)
	}
	ts.exec(t, kind, seq, op, fast)
	// Store-buffering pairing with waitLocked: exec's counter store is
	// sequenced before this parked load, and a waiter publishes its parked
	// count before re-checking the counter — so either the waiter is visible
	// here, or it sees the advanced counter and never parks.
	if ts.parked.Load() != 0 {
		ts.mu.Lock()
		ts.wakeLocked(seq + 1)
		ts.mu.Unlock()
	}
}

// replayObserved is replay with an EventObserver installed: the event keeps
// mu held, preserving the documented contract that the stall watchdog's
// progress probe serializes behind a blocking callback.
func (ts *turnstile) replayObserved(t *Thread, kind obs.EventKind, seq ids.GCount, op func(seq ids.GCount)) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.waitLocked(t, seq)
	ts.exec(t, kind, seq, op, true)
	ts.wakeLocked(seq + 1)
}

// wakeLocked hands the turn to the thread waiting for seq, if one is parked.
// The registration stays in place — the woken thread unregisters itself once
// it reacquires mu. Caller holds mu.
func (ts *turnstile) wakeLocked(seq ids.GCount) {
	if w := ts.waiters[seq]; w != nil {
		w.wake()
	}
}

// wakeAll sends a wake token to every parked thread: the stall broadcast.
func (ts *turnstile) wakeAll() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, w := range ts.waiters {
		w.wake()
	}
}

// await blocks until the counter reaches seq without executing anything —
// the first half of a replayed blocking event.
func (ts *turnstile) await(t *Thread, seq ids.GCount) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.waitLocked(t, seq)
}

// waitLocked parks the thread until the counter reaches seq, registering it
// for successor-directed wakeup (and with it the stall watchdog) and feeding
// the sampled turn-wait latency histogram. On a stall it panics with a
// DivergenceError naming the value it needed. Caller holds mu.
func (ts *turnstile) waitLocked(t *Thread, seq ids.GCount) {
	if ids.GCount(ts.clock.Load()) == seq {
		return // its turn already: no wait to observe
	}
	vm := ts.vm
	sampled := uint64(seq)&vm.sampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	// Publish the parked count before re-checking the counter: a lock-free
	// advancer that misses it must have stored the new value first, which the
	// loop's re-check then sees (pairing in replay).
	ts.parked.Add(1)
	vm.metrics.IncParked()
	for ids.GCount(ts.clock.Load()) != seq {
		if vm.stalled.Load() {
			ts.parked.Add(-1)
			vm.metrics.DecParked()
			parked := ts.waitingLocked()
			var waiting map[ids.ThreadNum]ids.GCount
			if ts.num == 0 {
				// Global counter values; this thread is not in waiters yet.
				waiting = map[ids.ThreadNum]ids.GCount{t.num: seq}
				maps.Copy(waiting, parked)
			}
			panic(&DivergenceError{
				VM:     vm.id,
				Thread: t.num,
				Msg: fmt.Sprintf("replay stalled at %s; this thread waits for %s (program-order event %d, parked threads: %v)",
					ts.at(ids.GCount(ts.clock.Load())), ts.at(seq), t.progSeq, parked),
				GC:      ids.GCount(vm.clock.Load()),
				Waiting: waiting,
			})
		}
		ts.waiters[seq] = t
		ts.mu.Unlock()
		<-t.turnCh
		ts.mu.Lock()
		delete(ts.waiters, seq)
	}
	ts.parked.Add(-1)
	vm.metrics.DecParked()
	if sampled {
		vm.metrics.ObserveTurnWait(time.Since(start))
	}
}

// waitingLocked maps each parked thread to the value it awaits, nil when
// nothing is parked so idle probes allocate nothing. Caller holds mu.
func (ts *turnstile) waitingLocked() map[ids.ThreadNum]ids.GCount {
	if len(ts.waiters) == 0 {
		return nil
	}
	out := make(map[ids.ThreadNum]ids.GCount, len(ts.waiters))
	for seq, t := range ts.waiters {
		out[t.num] = seq
	}
	return out
}

// cursor walks one thread's recorded runs of one turnstile. Only the owning
// thread touches it.
type cursor struct {
	runs    []tracelog.Interval
	ri      int
	pos     ids.GCount
	posInit bool
}

// next reports the counter value of the thread's next recorded event.
func (c *cursor) next() (ids.GCount, bool) {
	for c.ri < len(c.runs) {
		r := c.runs[c.ri]
		if !c.posInit {
			c.pos = r.First
			c.posInit = true
		}
		if c.pos <= r.Last {
			return c.pos, true
		}
		c.ri++
		c.posInit = false
	}
	return 0, false
}

// advance moves past the event just executed.
func (c *cursor) advance() {
	c.pos++
	if c.ri < len(c.runs) && c.pos > c.runs[c.ri].Last {
		c.ri++
		c.posInit = false
	}
}

// remaining counts the recorded events not yet replayed.
func (c *cursor) remaining() uint64 {
	var total uint64
	for i := c.ri; i < len(c.runs); i++ {
		r := c.runs[i]
		first := r.First
		if i == c.ri && c.posInit {
			first = c.pos
		}
		if first <= r.Last {
			total += uint64(r.Last-first) + 1
		}
	}
	return total
}

// cursor returns the thread's cursor on ts. Cursors are indexed by
// turnstile number, so the replay path takes no map lookup.
func (t *Thread) cursor(ts *turnstile) *cursor {
	if ts.num >= len(t.cursors) {
		t.openCursors()
	}
	return &t.cursors[ts.num]
}

// openCursors opens the thread's cursors on every turnstile registered since
// it last did. Objects are registered before the threads that use them
// start, so a thread normally opens them all when it is created.
func (t *Thread) openCursors() {
	vm := t.vm
	for _, ts := range vm.turnstiles()[len(t.cursors):] {
		runs := ts.runs[t.num]
		if vm.resume != nil {
			// Resume is global-order only: trim to the events at or past it.
			var skipped uint64
			runs, skipped = fastForward(runs, vm.resume.GC)
			vm.metrics.AddFastForwardSkips(skipped)
		}
		t.cursors = append(t.cursors, cursor{runs: runs})
	}
}

// ordered is embedded by the registrable shared objects: the turnstile that
// orders the object's events once it is registered on a sharded VM.
type ordered struct{ ts *turnstile }

// register enrolls the object for sharded order recording on vm. Outside
// sharded mode it is a no-op that consumes no ObjectID, so applications can
// register unconditionally and select the mode in the config.
func (r *ordered) register(vm *VM, what string) {
	if r.ts != nil {
		panic("core: " + what + " registered twice")
	}
	r.ts = vm.registerObject()
}

// order picks the turnstile of t's event on the object: the object's own
// when t's VM registered it, the VM's global order otherwise.
func (r *ordered) order(t *Thread) *turnstile {
	if ts := r.ts; ts != nil && ts.vm == t.vm {
		return ts
	}
	return &t.vm.turnstile
}

// registerObject allocates the next object turnstile, or nil outside sharded
// record/replay.
func (vm *VM) registerObject() *turnstile {
	if vm.orderMode != ids.OrderSharded || vm.mode == ids.Passthrough {
		return nil
	}
	vm.objsMu.Lock()
	defer vm.objsMu.Unlock()
	ts := &turnstile{}
	ts.init(vm, len(vm.objs)+1)
	vm.objs = append(vm.objs, ts)
	return ts
}

// ObjectCount reports how many objects have been registered for sharded
// ordering (0 outside sharded mode).
func (vm *VM) ObjectCount() int {
	vm.objsMu.Lock()
	defer vm.objsMu.Unlock()
	return len(vm.objs)
}

// turnstiles lists the global order followed by every object turnstile.
func (vm *VM) turnstiles() []*turnstile {
	vm.objsMu.Lock()
	defer vm.objsMu.Unlock()
	return append([]*turnstile{&vm.turnstile}, vm.objs...)
}
