package super

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recline"
	"repro/internal/tracelog"
)

// Group supervision: the multi-node generalization of Watch. A
// GroupSupervisor polls every member's progress counters, declares fail-stop
// of any subset whose counters freeze outside the coordinator's barrier,
// salvages the crashed members' WALs, solves the set's latest complete
// recovery line (recline.Solve), and restarts each crashed member from its
// line anchor — while the surviving members, released from the barrier by the
// member's removal, keep running and keep stamping epochs with the reduced
// membership. Later crashes open further episodes against the updated set.

// GroupMember names one supervised member of a coordinated group.
type GroupMember struct {
	// Name is the member's display name (its netsim host, typically).
	Name string
	// VM is the member's recording VM, polled for progress.
	VM *core.VM
	// WALPath is the member's write-ahead log, repaired on detection.
	WALPath string
}

// GroupConfig tunes group detection and recovery.
type GroupConfig struct {
	// Heartbeat is the progress-poll interval. Zero means 2ms.
	Heartbeat time.Duration
	// FailAfter is the no-progress window after which a member is declared
	// failed. Zero means 250ms. Members parked in the coordinator's barrier
	// are frozen but alive and are never declared failed.
	FailAfter time.Duration
	// Metrics receives the supervisor's recovery counters and MTTR
	// observations. Nil means don't report.
	Metrics *obs.Metrics
	// Coordinator is the group's checkpoint coordinator. The supervisor
	// consults it to tell barrier-parked members from crashed ones and
	// removes crashed members from it so survivors resume. Required.
	Coordinator *recline.Coordinator
	// Restart, when set, is invoked once per crashed member with the
	// prepared recovery; it should rebuild the member from the anchor
	// checkpoint and drive it to the end of its salvaged log.
	Restart func(member int, rec *MemberRecovery) error
}

// MemberRecovery is one crashed member's prepared restart.
type MemberRecovery struct {
	// Member is the member's index in the supervised slice; Name its name.
	Member int
	Name   string
	// Logs is the replayable set salvaged from the member's WAL; Report
	// describes the salvage.
	Logs   *tracelog.Set
	Report *tracelog.RecoveryReport
	// Checkpoint is the restart anchor, nil when recovery falls back to
	// replay-from-zero.
	Checkpoint *checkpoint.Snapshot
	// OnLine reports that the anchor is the member's checkpoint on the
	// episode's recovery line (false: no complete line covered the member
	// and the latest salvaged checkpoint was used instead).
	OnLine bool
	// FallbackZero reports a restart from the beginning of the log.
	FallbackZero bool
}

// GroupEpisode is one detection episode: the members declared failed
// together, the solved line, and their recoveries.
type GroupEpisode struct {
	// Crashed lists the failed members' indexes, ascending.
	Crashed []int
	// Solution is the full recovery-line solve over the set at detection
	// time; Line is its chosen line (nil when no complete line survived).
	Solution *recline.Solution
	Line     *recline.Line
	// Recoveries holds one prepared restart per crashed member, in Crashed
	// order.
	Recoveries []*MemberRecovery
	// DetectLatency is the longest freeze among the declared members;
	// RecoverLatency spans detection to the last restart returning.
	DetectLatency  time.Duration
	RecoverLatency time.Duration
}

// GroupOutcome aggregates a group supervision run.
type GroupOutcome struct {
	// Detected reports whether any episode fired.
	Detected bool
	// Episodes lists the detection episodes in order.
	Episodes []*GroupEpisode
}

// GroupSupervisor watches N member VMs. Create with WatchGroup; it exits
// after Stop, after an episode fails, or once every member has either
// completed cleanly (MarkDone) or crashed and been recovered.
type GroupSupervisor struct {
	cfg      GroupConfig
	members  []GroupMember
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu   sync.Mutex
	mark map[int]bool // members marked done by MarkDone

	outcome *GroupOutcome
	err     error
}

// WatchGroup starts supervising the members' progress.
func WatchGroup(members []GroupMember, cfg GroupConfig) *GroupSupervisor {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 250 * time.Millisecond
	}
	g := &GroupSupervisor{
		cfg:     cfg,
		members: members,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		mark:    make(map[int]bool),
	}
	go g.run()
	return g
}

// MarkDone tells the supervisor the member completed cleanly: its counters
// may freeze without being declared failed. Call it from the member's own
// workload just before it returns.
func (g *GroupSupervisor) MarkDone(member int) {
	g.mu.Lock()
	g.mark[member] = true
	g.mu.Unlock()
}

// Stop stands the supervisor down. Safe to call more than once.
func (g *GroupSupervisor) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
}

// Wait blocks until supervision ends and returns the aggregated outcome. An
// error means an episode's salvage or restart failed; the outcome still
// reports the episodes that completed.
func (g *GroupSupervisor) Wait() (*GroupOutcome, error) {
	<-g.done
	return g.outcome, g.err
}

// memberState is the run loop's per-member bookkeeping.
type memberState struct {
	last      uint64
	lastMove  time.Time
	recovered bool
	salvaged  *tracelog.Set // set salvaged when the member crashed
}

func (g *GroupSupervisor) run() {
	defer close(g.done)
	g.outcome = &GroupOutcome{}
	tick := time.NewTicker(g.cfg.Heartbeat)
	defer tick.Stop()
	states := make([]memberState, len(g.members))
	now := time.Now()
	for i, m := range g.members {
		states[i] = memberState{last: m.VM.Metrics().TotalEvents(), lastMove: now}
	}
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
		}
		waiting := g.cfg.Coordinator.Waiting()
		g.mu.Lock()
		marked := make(map[int]bool, len(g.mark))
		for i := range g.mark {
			marked[i] = true
		}
		g.mu.Unlock()

		var crashed []int
		var maxFrozen time.Duration
		live := 0
		for i, m := range g.members {
			if states[i].recovered || marked[i] {
				continue
			}
			live++
			cur := m.VM.Metrics().TotalEvents()
			if cur != states[i].last {
				states[i].last, states[i].lastMove = cur, time.Now()
				continue
			}
			if waiting[m.VM.ID()] {
				// Parked in the coordinator barrier: frozen but alive.
				// Reset the clock so barrier time never counts toward the
				// member's own fail window.
				states[i].lastMove = time.Now()
				continue
			}
			if frozen := time.Since(states[i].lastMove); frozen >= g.cfg.FailAfter {
				crashed = append(crashed, i)
				if frozen > maxFrozen {
					maxFrozen = frozen
				}
			}
		}
		if live == 0 {
			return
		}
		if len(crashed) == 0 {
			continue
		}
		ep, err := g.episode(crashed, maxFrozen, states)
		g.outcome.Detected = true
		g.outcome.Episodes = append(g.outcome.Episodes, ep)
		if err != nil {
			g.err = err
			return
		}
		for _, i := range crashed {
			states[i].recovered = true
		}
	}
}

// episode runs one detect-salvage-solve-restart sequence for the members
// declared failed together.
func (g *GroupSupervisor) episode(crashed []int, frozen time.Duration, states []memberState) (*GroupEpisode, error) {
	t0 := time.Now()
	ep := &GroupEpisode{Crashed: crashed, DetectLatency: frozen}
	isCrashed := make(map[int]bool, len(crashed))
	for _, i := range crashed {
		isCrashed[i] = true
	}

	// Salvage the crashed members' WALs.
	reports := make(map[int]*tracelog.RecoveryReport, len(crashed))
	for _, i := range crashed {
		logs, rep, err := tracelog.RecoverFile(g.members[i].WALPath)
		if err != nil {
			return ep, fmt.Errorf("super: member %s: wal repair: %w", g.members[i].Name, err)
		}
		states[i].salvaged = logs
		reports[i] = rep
	}

	// Solve the recovery line over every member's best available evidence:
	// the fresh salvage for the members of this episode, earlier salvages
	// for previously recovered members, and the live in-memory logs of the
	// survivors (parked at the barrier, hence quiescent).
	var sets []*tracelog.Set
	for i := range g.members {
		switch {
		case states[i].salvaged != nil:
			sets = append(sets, states[i].salvaged)
		default:
			sets = append(sets, g.members[i].VM.Logs())
		}
	}
	sol, err := recline.Solve(sets)
	if err != nil {
		return ep, fmt.Errorf("super: recovery line: %w", err)
	}
	ep.Solution, ep.Line = sol, sol.Line
	if g.cfg.Metrics != nil {
		for n := sol.Fallbacks(); n > 0; n-- {
			g.cfg.Metrics.IncLineFallback()
		}
	}

	// Release the survivors: future rounds no longer wait for the dead.
	for _, i := range crashed {
		g.cfg.Coordinator.Remove(g.members[i].VM.ID())
	}

	// Anchor and restart each crashed member.
	for _, i := range crashed {
		rec := &MemberRecovery{
			Member: i,
			Name:   g.members[i].Name,
			Logs:   states[i].salvaged,
			Report: reports[i],
		}
		ep.Recoveries = append(ep.Recoveries, rec)
		vmID := g.members[i].VM.ID()
		if sol.Line != nil {
			if anchor, ok := sol.Line.Anchors[vmID]; ok {
				cp, err := checkpoint.At(rec.Logs, anchor)
				if err != nil {
					return ep, fmt.Errorf("super: member %s: line anchor %d: %w", rec.Name, anchor, err)
				}
				rec.Checkpoint, rec.OnLine = cp, true
			}
		}
		if rec.Checkpoint == nil {
			// No complete line covers the member: fall back to the latest
			// salvaged checkpoint, exactly like single-VM supervision.
			cp, err := checkpoint.Latest(rec.Logs)
			switch {
			case err == nil:
				rec.Checkpoint = cp
			case errors.Is(err, checkpoint.ErrNoCheckpoint):
				if rec.Report.BaseGC > 0 {
					return ep, fmt.Errorf("super: member %s: log truncated at counter %d but no checkpoint salvaged — unrecoverable", rec.Name, rec.Report.BaseGC)
				}
				rec.FallbackZero = true
			default:
				return ep, fmt.Errorf("super: member %s: %w", rec.Name, err)
			}
		}
		if g.cfg.Metrics != nil {
			g.cfg.Metrics.IncRecovery()
			if rec.FallbackZero {
				g.cfg.Metrics.IncFallback()
			}
		}
		if g.cfg.Restart != nil {
			if g.cfg.Metrics != nil {
				g.cfg.Metrics.IncRestart()
			}
			if err := g.cfg.Restart(i, rec); err != nil {
				return ep, fmt.Errorf("super: member %s: restart: %w", rec.Name, err)
			}
		}
	}
	ep.RecoverLatency = time.Since(t0)
	if g.cfg.Metrics != nil {
		g.cfg.Metrics.ObserveMTTR(ep.RecoverLatency)
	}
	return ep, nil
}
