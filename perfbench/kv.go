package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ids"
	"repro/internal/kvapp"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// kv-lossy: the replicated key-value store (internal/kvapp): a primary, two
// replicas and a client VM with two client threads. Puts and gets travel as
// RPCs over djrpc/djsock; the primary multicasts updates over djgram to the
// replicas through a lossy, duplicating, reordering network. The primary
// records through a WAL at the default sync cadence, with causal tracing on.
// kvapp exposes neither its VMs nor their metrics, so its record and replay
// phases have no layer spans: their whole time is the unattributed gap.
const (
	kvOpsPerClient = 1000
	kvReplicas     = 2
	kvClients      = 2
	// kvPrimary and the replica and client ids are kvapp's own VM ids.
	kvPrimary = ids.DJVMID(1)
	kvClient  = ids.DJVMID(2)
	// kvPhaseLimit bounds one kvapp.Run, which takes well under a second
	// here. A replay that deadlocks returns only after kvapp's own timeout
	// of a minute, which would overrun the run's time.
	kvPhaseLimit = 15 * time.Second
)

type kvOutcome struct {
	res  kvapp.Result
	logs kvapp.RunLogs
}

// within runs fn and gives up waiting after d. A call given up on returns
// at kvapp's own timeout, its outcome dropped; the VM threads of a
// deadlocked run stay blocked until the process exits.
func within(d time.Duration, fn func() (kvOutcome, error)) (kvOutcome, error) {
	type result struct {
		out kvOutcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := fn()
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(d):
		return kvOutcome{}, fmt.Errorf("no result after %v: deadlocked", d)
	}
}

func kvChaos() netsim.Chaos {
	// Connect and deliver delays are off, so timers do not set the wall time.
	return netsim.Chaos{LossRate: 0.15, DupRate: 0.05, ReorderRate: 0.2, RandomEphemeral: true}
}

func runKV(seed int64, scale float64, c *cycle, ck *checker) (*cycleMetrics, error) {
	m := newMetrics()
	wal := filepath.Join(workDir, "kv-primary.wal")
	cfg := kvapp.Config{
		Replicas: kvReplicas, Clients: kvClients,
		OpsPerClient: max(int(kvOpsPerClient*scale), 10),
		Seed:         seed, Chaos: kvChaos(),
	}
	run := func(phase string, mode ids.Mode, mutate func(*kvapp.Config)) (kvapp.Result, kvapp.RunLogs, error) {
		var res kvapp.Result
		var logs kvapp.RunLogs
		rc := cfg
		rc.Mode = mode
		if mutate != nil {
			mutate(&rc)
		}
		err := c.phase(phase, func() error {
			out, err := within(kvPhaseLimit, func() (kvOutcome, error) {
				res, logs, err := kvapp.Run(rc)
				return kvOutcome{res, logs}, err
			})
			res, logs = out.res, out.logs
			return err
		})
		return res, logs, err
	}

	if _, _, err := run("plain", ids.Passthrough, nil); err != nil {
		return nil, err
	}
	var rec kvapp.Result
	var logs kvapp.RunLogs
	recAlloc, err := allocDuring(func() (err error) {
		rec, logs, err = run("record", ids.Record, func(rc *kvapp.Config) {
			rc.PrimaryWAL = wal
			rc.CausalTrace = true
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	walInfo, err := os.Stat(wal)
	if err != nil {
		return nil, err
	}

	var salvaged *tracelog.Set
	var salvage *tracelog.RecoveryReport
	err = c.phase("salvage", func() error {
		var err error
		c.span("wal", "tracelog.RecoverFile", func() { salvaged, salvage, err = tracelog.RecoverFile(wal) })
		return err
	})
	if err != nil {
		return nil, err
	}
	ck.expect(salvage.Clean && !salvage.Truncated, "primary WAL salvage not clean: %+v", salvage)
	checkSet(ck, "salvaged primary", salvaged)

	index := map[ids.DJVMID]*tracelog.Set{kvPrimary: salvaged, kvClient: logs[len(logs)-1]}
	for i := 0; i < kvReplicas; i++ {
		index[ids.DJVMID(10+i)] = logs[1+i]
	}
	if err := indexPhase(c, index); err != nil {
		return nil, err
	}
	rep, _, err := run("replay", ids.Replay, func(rc *kvapp.Config) {
		rc.Logs = append(kvapp.RunLogs{salvaged}, logs[1:]...)
		// A different network seed: replay must not depend on the chaos.
		rc.Seed = seed + 7777
	})
	if err != nil {
		return nil, err
	}
	ck.expect(rep.PrimaryDigest == rec.PrimaryDigest, "primary digest %x, recorded %x", rep.PrimaryDigest, rec.PrimaryDigest)
	ck.expect(rep.ClientDigest == rec.ClientDigest, "client digest %x, recorded %x", rep.ClientDigest, rec.ClientDigest)
	ck.expect(rep.ServedOps == rec.ServedOps, "served ops %d, recorded %d", rep.ServedOps, rec.ServedOps)
	for i := range rec.ReplicaDigests {
		ck.expect(rep.ReplicaDigests[i] == rec.ReplicaDigests[i], "replica %d digest %x, recorded %x", i, rep.ReplicaDigests[i], rec.ReplicaDigests[i])
	}
	if err := analyze(c, ck, m, logs, 1); err != nil {
		return nil, err
	}

	for _, ph := range []string{"plain", "record", "replay", "analyze"} {
		m.e2e[ph+"_s"] = c.seconds(ph)
	}
	m.e2e["wal_peak_bytes"] = float64(walInfo.Size())
	f, err := readLogs(logs)
	if err != nil {
		return nil, err
	}
	putLogFigures(m, f)
	st := finishLayers(c, m)
	records, syncs := logs[0].WAL().Stats()
	m.layer["wal.records"] = float64(records)
	m.layer["wal.syncs"] = float64(syncs)
	m.layer["wal.syncs_per_kevent"] = float64(syncs) / (float64(salvage.FinalGC) / 1000)
	m.layer["wal.salvage_s"] = st.layer["wal@salvage"]
	m.layer["djgram.deliveries"] = float64(f.deliveries)
	m.layer["djgram.deliveries_per_kop"] = float64(f.deliveries) / (float64(cfg.OpsPerClient*kvClients) / 1000)
	m.layer["core.alloc_bytes_per_event"] = float64(recAlloc) / float64(f.events)
	m.layer["tracelog.index_s"] = st.layer["tracelog@index"]
	return m, nil
}
