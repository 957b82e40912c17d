package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// open-durable: one open-world primary VM whose two worker threads run echo
// round trips against two peers that are not DJVMs. Worker 0 connects to
// the echo server p1; worker 1 listens and accepts a connection from the
// client p2 and echoes what it sends. Every byte read is logged, and replay
// serves it from the log with no peer present. Each round ends with a
// checkpoint and a WAL truncation keeping two anchors; a final round runs
// without one, and the crash is a cut of the WAL inside it. Recovery salvages
// the cut WAL and resumes from its latest checkpoint to the crash point.
const (
	openRounds    = 8   // checkpointed rounds at scale 1
	openExchanges = 400 // echo round trips per worker per round
	openKeep      = 2
	openKeys      = 8 // store keys per worker: the checkpoint stays small
	openReplays   = 5 // replays of the salvaged log per cycle
	openEchoPort  = 7200
	openListen    = 7300
	openVM        = ids.DJVMID(7)
	openHost      = "prim"
)

type openInputs struct {
	seed   int64
	rounds int
}

// payload is the bytes worker w sends (or receives from p2) in exchange i of
// round r.
func (in openInputs) payload(r, w, i int) []byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%d", in.seed, r, w, i)
	sum := h.Sum64()
	out := make([]byte, 8+sum%56)
	for j := range out {
		out[j] = 'a' + byte((sum>>(j%8*8)+uint64(j))%26)
	}
	return out
}

func openKey(w, i int) string { return fmt.Sprintf("w%d.k%d", w, i%openKeys) }

// want is the store a run that completes every round ends with: each
// worker's keys hold its last round's payloads.
func (in openInputs) want() map[string]string {
	store := map[string]string{}
	for w := 0; w < 2; w++ {
		for i := 0; i < openExchanges; i++ {
			store[openKey(w, i)] = string(in.payload(in.rounds, w, i))
		}
	}
	return store
}

// openState is the checkpointed application state.
type openState struct {
	Round int               `json:"round"`
	Store map[string]string `json:"store"`
}

// openRun is one execution of the primary.
type openRun struct {
	store     map[string]string
	events    uint64
	updates   int
	snap      obs.Snapshot
	logs      *tracelog.Set
	walPeak   int64
	tailStart int64
	rewritten int64
}

// openOnce runs the primary from round start (after restoring store) to the
// final round, or to the end of its log when replaying with StopAtLogEnd.
func openOnce(c *cycle, in openInputs, cfg core.Config, start int, store map[string]string, wal string) (*openRun, error) {
	cfg.ID, cfg.World = openVM, ids.OpenWorld
	var vm *core.VM
	var err error
	c.span("tracelog", "core.NewVM", func() { vm, err = core.NewVM(cfg) })
	if err != nil {
		return nil, err
	}
	if wal != "" {
		if err := vm.EnableWAL(wal, tracelog.WALOptions{}); err != nil {
			return nil, err
		}
	}
	net := netsim.NewNetwork(netsim.Config{Seed: in.seed})
	live := cfg.Mode != ids.Replay
	var failed firstError
	peers := &peerSet{failed: &failed, done: make(chan struct{})}
	listening := make(chan struct{}, 1)
	if live {
		if err := peers.echo(net, "p1", openEchoPort); err != nil {
			return nil, err
		}
		peers.client(net, in, start, listening)
	}
	env := djsock.NewEnv(vm, net, openHost)
	mon := core.NewMonitor()
	run := &openRun{store: store}
	update := func(t *core.Thread, key, val string) {
		c.span("core", "core.Monitor", func() {
			mon.Enter(t)
			store[key] = val
			run.updates++
			mon.Exit(t)
		})
	}
	// call makes one djsock call. In a replay cut short by the crash, a
	// thread whose schedule is used up has reached the crash point: the
	// socket layer reports the missing record as an error, and the thread
	// stops there.
	call := func(t *core.Thread, op string, fn func() error) bool {
		var err error
		c.span("djsock", "djsock."+op, func() { err = fn() })
		if err != nil && !(cfg.StopAtLogEnd && t.RemainingScheduled() == 0) {
			failed.set(fmt.Errorf("%s: %w", op, err))
		}
		return err == nil
	}

	connector := func(r int) func(t *core.Thread) {
		return func(t *core.Thread) {
			var s *djsock.Socket
			if !call(t, "connect", func() (err error) {
				s, err = env.Connect(t, netsim.Addr{Host: "p1", Port: openEchoPort})
				return err
			}) {
				return
			}
			defer s.Close(t)
			for i := 0; i < openExchanges; i++ {
				p := in.payload(r, 0, i)
				buf := make([]byte, len(p))
				if !call(t, "write", func() error { _, err := s.Write(t, p); return err }) ||
					!call(t, "read", func() error { return s.ReadFull(t, buf) }) {
					return
				}
				update(t, openKey(0, i), string(buf))
			}
		}
	}
	acceptor := func(r int) func(t *core.Thread) {
		return func(t *core.Thread) {
			ss, err := env.Listen(t, openListen)
			if err != nil {
				failed.set(fmt.Errorf("listen: %w", err))
				return
			}
			defer ss.Close(t)
			if live {
				listening <- struct{}{}
			}
			var s *djsock.Socket
			if !call(t, "accept", func() (err error) { s, err = ss.Accept(t); return err }) {
				return
			}
			defer s.Close(t)
			for i := 0; i < openExchanges; i++ {
				buf := make([]byte, len(in.payload(r, 1, i)))
				if !call(t, "read", func() error { return s.ReadFull(t, buf) }) ||
					!call(t, "write", func() error { _, err := s.Write(t, buf); return err }) {
					return
				}
				update(t, openKey(1, i), string(buf))
			}
		}
	}

	vm.Start(func(main *core.Thread) {
		for r := start; r <= in.rounds; r++ {
			w0 := main.Spawn(connector(r))
			w1 := main.Spawn(acceptor(r))
			main.Join(w0)
			main.Join(w1)
			if r == in.rounds {
				return // the final round takes no checkpoint: the crash lands in it
			}
			state, err := json.Marshal(openState{Round: r + 1, Store: store})
			if err != nil {
				failed.set(err)
				return
			}
			c.span("checkpoint", "checkpoint.Take", func() { checkpoint.Take(main, func() []byte { return state }) })
			if cfg.Mode != ids.Record {
				continue
			}
			size, err := vm.Logs().WAL().Size()
			if err != nil {
				failed.set(err)
				return
			}
			run.walPeak = max(run.walPeak, size)
			var st *tracelog.TruncateStats
			c.span("wal", "core.VM.TruncateWAL", func() { st, err = vm.TruncateWAL(openKeep) })
			switch {
			case errors.Is(err, tracelog.ErrNoAnchor):
			case err != nil:
				failed.set(err)
				return
			default:
				run.rewritten += st.Bytes
			}
			if run.tailStart, err = vm.Logs().WAL().Size(); err != nil {
				failed.set(err)
				return
			}
		}
	})
	vm.Wait()
	vm.Close()
	peers.stop()
	if err := failed.get(); err != nil {
		return nil, err
	}
	run.events = vm.Stats().CriticalEvents
	run.snap = vm.Metrics().Snapshot()
	run.logs = vm.Logs()
	return run, nil
}

// firstError keeps the first of the errors several goroutines report.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// peerSet runs the plain, uninstrumented peers of a live run.
type peerSet struct {
	wg        sync.WaitGroup
	listeners []*netsim.Listener
	failed    *firstError
	// done is closed by stop, so a client still waiting for a round the
	// primary never reached returns.
	done chan struct{}
}

// echo serves echo connections on host:port until stop.
func (p *peerSet) echo(net *netsim.Network, host string, port uint16) error {
	l, err := net.Listen(host, port)
	if err != nil {
		return err
	}
	p.listeners = append(p.listeners, l)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			s, err := l.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer s.Close()
				buf := make([]byte, 512)
				for {
					n, err := s.Read(buf)
					if n > 0 {
						if _, werr := s.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return nil
}

// client is p2: for each round it waits until the primary listens, then
// connects, sends the round's payloads and reads each echo back.
func (p *peerSet) client(net *netsim.Network, in openInputs, start int, listening <-chan struct{}) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for r := start; r <= in.rounds; r++ {
			select {
			case <-listening:
			case <-p.done:
				return
			}
			s, err := net.Connect("p2", netsim.Addr{Host: openHost, Port: openListen})
			if err != nil {
				p.failed.set(fmt.Errorf("p2 connect: %w", err))
				return
			}
			for i := 0; i < openExchanges; i++ {
				msg := in.payload(r, 1, i)
				echo := make([]byte, len(msg))
				if _, err := s.Write(msg); err != nil {
					p.failed.set(fmt.Errorf("p2 write: %w", err))
					break
				}
				if _, err := io.ReadFull(s, echo); err != nil || string(echo) != string(msg) {
					p.failed.set(fmt.Errorf("p2 echo %q, sent %q (%v)", echo, msg, err))
					break
				}
			}
			s.Close()
		}
	}()
}

// stop ends the peers and waits for every peer goroutine.
func (p *peerSet) stop() {
	close(p.done)
	for _, l := range p.listeners {
		l.Close()
	}
	p.wg.Wait()
}

func digest(store map[string]string) string {
	keys := make([]string, 0, len(store))
	for k := range store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s;", k, store[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// replayFrom replays the salvaged set from snap to the end of the log.
func replayFrom(c *cycle, in openInputs, set *tracelog.Set, snap *checkpoint.Snapshot) (*openRun, error) {
	var st openState
	if err := json.Unmarshal(snap.Data, &st); err != nil {
		return nil, fmt.Errorf("checkpoint state: %w", err)
	}
	cfg := checkpoint.ResumeConfig(core.Config{StopAtLogEnd: true, StallTimeout: 30 * time.Second}, set, snap)
	return openOnce(c, in, cfg, st.Round, st.Store, "")
}

func runOpen(seed int64, scale float64, c *cycle, ck *checker) (*cycleMetrics, error) {
	in := openInputs{seed: seed, rounds: max(int(openRounds*scale), 3)}
	want := digest(in.want())
	m := newMetrics()
	wal := filepath.Join(workDir, "open-primary.wal")
	once := func(phase string, cfg core.Config, walPath string) (*openRun, error) {
		var r *openRun
		err := c.phase(phase, func() error {
			var err error
			r, err = openOnce(c, in, cfg, 0, map[string]string{}, walPath)
			return err
		})
		if err == nil {
			ck.expect(digest(r.store) == want, "%s: store digest %s, want %s", phase, digest(r.store), want)
		}
		return r, err
	}

	if _, err := once("plain", core.Config{Mode: ids.Passthrough}, ""); err != nil {
		return nil, err
	}
	var rec *openRun
	recAlloc, err := allocDuring(func() (err error) {
		rec, err = once("record", core.Config{Mode: ids.Record}, wal)
		return err
	})
	if err != nil {
		return nil, err
	}
	walInfo, err := os.Stat(wal)
	if err != nil {
		return nil, err
	}
	cut := crashOffset(seed, rec.tailStart, walInfo.Size())
	if err := os.Truncate(wal, cut); err != nil {
		return nil, err
	}

	var salvaged *tracelog.Set
	var salvage *tracelog.RecoveryReport
	var resumed *openRun
	err = c.phase("recover", func() error {
		var err error
		c.span("wal", "tracelog.RecoverFile", func() { salvaged, salvage, err = tracelog.RecoverFile(wal) })
		if err != nil {
			return err
		}
		var snap *checkpoint.Snapshot
		c.span("checkpoint", "checkpoint.Latest", func() { snap, err = checkpoint.Latest(salvaged) })
		if err != nil {
			return err
		}
		c.nest("checkpoint", "checkpoint.resume", func() { resumed, err = replayFrom(c, in, salvaged, snap) })
		return err
	})
	if err != nil {
		return nil, err
	}
	ck.expect(!salvage.Clean, "cut WAL recovered as complete: %+v", salvage)
	checkSet(ck, "salvaged primary", salvaged)

	anchors, err := checkpoint.List(salvaged)
	if err != nil {
		return nil, err
	}
	if len(anchors) == 0 {
		return nil, fmt.Errorf("salvaged WAL retains no checkpoint")
	}
	var baseSnaps []obs.Snapshot
	replayUpdates := 0
	for i := 0; i < openReplays; i++ {
		var base *openRun
		err := c.phase("replay", func() (err error) {
			base, err = replayFrom(c, in, salvaged, anchors[0])
			return err
		})
		if err != nil {
			return nil, err
		}
		ck.expect(digest(base.store) == digest(resumed.store), "baseline replay digest %s, resumed %s", digest(base.store), digest(resumed.store))
		baseSnaps = append(baseSnaps, base.snap)
		replayUpdates += base.updates
	}
	if err := analyze(c, ck, m, []*tracelog.Set{rec.logs}, 5); err != nil {
		return nil, err
	}

	for _, ph := range []string{"plain", "record", "replay", "analyze", "recover"} {
		m.e2e[ph+"_s"] = c.seconds(ph)
	}
	m.e2e["wal_peak_bytes"] = float64(max(rec.walPeak, walInfo.Size()))
	f, err := readLogs([]*tracelog.Set{rec.logs})
	if err != nil {
		return nil, err
	}
	putLogFigures(m, f)
	st := finishLayers(c, m)
	putObs(m, []obs.Snapshot{rec.snap}, baseSnaps)
	records, syncs := rec.logs.WAL().Stats()
	m.layer["wal.records"] = float64(records)
	m.layer["wal.syncs"] = float64(syncs)
	m.layer["wal.syncs_per_kevent"] = float64(syncs) / (float64(rec.events) / 1000)
	m.layer["wal.rewrite_ratio"] = float64(rec.rewritten) / float64(rec.snap.Logs.TotalBytes())
	m.layer["wal.salvage_s"] = st.layer["wal@recover"]
	m.layer["checkpoint.resume_s"] = quantileNs(st.calls["checkpoint.resume@recover"], 0.5) / 1e9
	m.layer["checkpoint.catchup_events"] = float64(resumed.events)
	// The core spans here are monitor enter-exit pairs: two events each.
	m.layer["core.record_ns_per_event"] = perEvent(st, "core@record", 2*uint64(rec.updates))
	m.layer["core.replay_ns_per_event"] = perEvent(st, "core@replay", 2*uint64(replayUpdates))
	m.layer["core.alloc_bytes_per_event"] = float64(recAlloc) / float64(rec.events)
	m.layer["tracelog.index_s"] = st.layer["tracelog@replay"] / openReplays
	return m, nil
}

// crashOffset picks, from the seed, a byte offset strictly inside the WAL's
// final round: after the last truncation and before the end of the file.
func crashOffset(seed int64, tailStart, size int64) int64 {
	if size-tailStart < 2 {
		return size - 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "crash/%d", seed)
	return tailStart + 1 + int64(h.Sum64()%uint64(size-tailStart-1))
}
