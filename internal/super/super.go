// Package super closes the paper's fault-tolerance loop (§8): it watches a
// recording DJVM for fail-stop, repairs the crashed VM's write-ahead log,
// and prepares a checkpoint-anchored restart — automatically, where PR 3's
// ingredients (durable WAL, torn-write recovery, checkpoint resume) each had
// to be wired by hand per test.
//
// Detection is progress-based, not liveness-based: a recording VM has no
// heartbeat protocol, but its event counters are lock-free atomics that keep
// moving as long as any thread executes critical events. The supervisor polls
// the counter total and declares fail-stop after a configurable window with
// no movement — which catches both a killed process (counters frozen) and the
// chaos engine's in-situ crash (a thread blocked forever inside the
// GC-critical section freezes every other thread too, so the total freezes
// the same way).
//
// Recovery then runs tracelog.RecoverFile on the WAL, picks the latest
// salvaged checkpoint as the restart anchor (falling back to replay-from-zero
// when the log was never truncated and holds no checkpoint), and hands the
// repaired set to the application's restart callback, which rebuilds the VM
// with checkpoint.ResumeConfig + StopAtLogEnd and fast-forwards to the crash
// point. Outcomes surface through obs: recoveries, restarts, fallbacks, and
// a mean-time-to-recover histogram.
package super

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// Config tunes detection and names the artifacts recovery works on.
type Config struct {
	// WALPath is the supervised VM's write-ahead log, repaired on detection.
	WALPath string
	// Heartbeat is the progress-poll interval. Zero means 2ms.
	Heartbeat time.Duration
	// FailAfter is the no-progress window after which the VM is declared
	// failed. Zero means 250ms. It bounds detection latency from below, so
	// it also floors MTTR; soak tests shrink it, production keeps it above
	// the longest legitimate pause (GC, slow I/O) to avoid false positives.
	FailAfter time.Duration
	// Metrics receives the supervisor's recovery counters and MTTR
	// observations. Nil means don't report. This is the supervisor's own
	// metric set — the supervised VM's metrics die with it.
	Metrics *obs.Metrics
	// Restart, when set, is invoked once with the prepared recovery; it
	// should rebuild the VM from the anchor checkpoint (or from zero),
	// drive it to the end of the salvaged log, and return when the replica
	// has rejoined. Its duration is the recovery half of MTTR.
	Restart func(*Recovery) error
}

// Recovery is a prepared restart: the repaired log set and the anchor to
// resume from.
type Recovery struct {
	// Logs is the replayable set salvaged from the WAL.
	Logs *tracelog.Set
	// Report describes the salvage: prefix bounds, dropped records, whether
	// the log was clean.
	Report *tracelog.RecoveryReport
	// Checkpoint is the restart anchor — the latest checkpoint salvaged from
	// the log — or nil when recovery falls back to replay-from-zero.
	Checkpoint *checkpoint.Snapshot
}

// Outcome reports what one supervision episode observed.
type Outcome struct {
	// Detected reports whether fail-stop was declared (false after Stop on a
	// VM that completed cleanly).
	Detected bool
	// Recovery is the prepared restart (nil unless Detected).
	Recovery *Recovery
	// FallbackZero reports that no checkpoint was salvageable and the
	// restart replays from the beginning of the log.
	FallbackZero bool
	// DetectLatency is how long the counters had been frozen when fail-stop
	// was declared (≥ FailAfter by construction).
	DetectLatency time.Duration
	// RecoverLatency spans detection to the restart callback returning — the
	// per-episode MTTR observation.
	RecoverLatency time.Duration
	// LastTotal is the supervised VM's critical-event total at detection.
	LastTotal uint64
}

// Supervisor watches one recording VM. Create with Watch, end with Stop (for
// a VM that completes cleanly) or let detection run its course; Wait returns
// the episode's outcome either way.
type Supervisor struct {
	cfg      Config
	vm       *core.VM
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	outcome  *Outcome
	err      error
}

// Watch starts supervising vm's progress. The returned Supervisor owns a
// single goroutine; it exits after clean Stop or after one detection episode
// (recover + restart) completes.
func Watch(vm *core.VM, cfg Config) *Supervisor {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 250 * time.Millisecond
	}
	s := &Supervisor{
		cfg:  cfg,
		vm:   vm,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go s.run()
	return s
}

// Stop stands the supervisor down (the supervised VM completed cleanly).
// Safe to call more than once; no-op after detection already fired.
func (s *Supervisor) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Wait blocks until the supervision episode ends and returns its outcome:
// (nil, nil) after a clean Stop, the detection outcome otherwise. An error
// means detection fired but recovery itself failed (unreadable WAL,
// truncated log without a salvageable anchor, restart callback failure).
func (s *Supervisor) Wait() (*Outcome, error) {
	<-s.done
	return s.outcome, s.err
}

func (s *Supervisor) run() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.Heartbeat)
	defer tick.Stop()
	m := s.vm.Metrics()
	last := m.TotalEvents()
	lastMove := time.Now()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		cur := m.TotalEvents()
		if cur != last {
			last, lastMove = cur, time.Now()
			continue
		}
		if frozen := time.Since(lastMove); frozen >= s.cfg.FailAfter {
			s.outcome, s.err = s.recover(frozen, cur)
			return
		}
	}
}

// recover runs the salvage-anchor-restart sequence for one detection.
func (s *Supervisor) recover(frozen time.Duration, total uint64) (*Outcome, error) {
	t0 := time.Now()
	out := &Outcome{Detected: true, DetectLatency: frozen, LastTotal: total}
	logs, rep, err := tracelog.RecoverFile(s.cfg.WALPath)
	if err != nil {
		return out, fmt.Errorf("super: wal repair: %w", err)
	}
	rec := &Recovery{Logs: logs, Report: rep}
	out.Recovery = rec
	cp, err := checkpoint.Latest(logs)
	switch {
	case err == nil:
		rec.Checkpoint = cp
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		if rep.BaseGC > 0 {
			// The WAL was truncated at a checkpoint, yet the salvaged prefix
			// holds none: the anchor record itself fell past the torn tail.
			// Nothing below BaseGC survives, so there is no resume point.
			return out, fmt.Errorf("super: log truncated at counter %d but no checkpoint salvaged — unrecoverable", rep.BaseGC)
		}
		out.FallbackZero = true
	default:
		return out, fmt.Errorf("super: %w", err)
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.IncRecovery()
		if out.FallbackZero {
			s.cfg.Metrics.IncFallback()
		}
	}
	if s.cfg.Restart != nil {
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.IncRestart()
		}
		if err := s.cfg.Restart(rec); err != nil {
			return out, fmt.Errorf("super: restart: %w", err)
		}
	}
	out.RecoverLatency = time.Since(t0)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.ObserveMTTR(out.RecoverLatency)
	}
	return out, nil
}
