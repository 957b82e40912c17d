// djbench regenerates the evaluation tables of "Deterministic Replay of
// Distributed Java Applications" (IPPS 2000, §6) on this repository's DJVM
// implementation:
//
//	djbench -table 1      # Table 1(a)/(b): closed-world server & client
//	djbench -table 2      # Table 2(a)/(b): open-world server & client
//	djbench -table all    # both
//	djbench -verify       # record + replay, check "perfect replay"
//
// Columns mirror the paper: #threads, #critical events, #nw events,
// log size (bytes), and rec ovhd (%) — the percentage increase in execution
// time of a recording run over the plain (passthrough) baseline — plus the
// obs-derived events/sec and bytes-logged columns. With -obs each table is
// also emitted as JSON carrying the full observability snapshot per row
// (feed it to `djstat -json` or any JSON tooling).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, or all")
	reps := flag.Int("reps", 3, "timing repetitions per cell (minimum is reported)")
	threadList := flag.String("threads", "2,4,8,16,32", "comma-separated thread counts")
	verify := flag.Bool("verify", false, "record and replay once, checking outcome equality")
	logsize := flag.Bool("logsize", false, "run the message-size vs log-size sweep (§6 note)")
	obsJSON := flag.Bool("obs", false, "also emit each table as JSON with per-row obs snapshots")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	threads, err := parseThreads(*threadList)
	if err != nil {
		fatal(err)
	}
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  ... %s\n", msg)
		}
	}

	if *verify {
		fmt.Println("Verifying deterministic replay (record one execution, replay it):")
		closedOK, openOK, detail, err := bench.VerifyReplay(threads[0])
		if err != nil {
			fatal(err)
		}
		fmt.Println(detail)
		fmt.Printf("closed world: perfect replay = %v\n", closedOK)
		fmt.Printf("open world:   perfect replay = %v\n", openOK)
		if !closedOK || !openOK {
			os.Exit(1)
		}
		return
	}

	if *logsize {
		rows, err := bench.GenerateLogSizeSweep(threads[0], []int{64, 256, 1024, 4096, 16384})
		if err != nil {
			fatal(err)
		}
		fmt.Println("Client log size vs message size (bytes), equal event load:")
		fmt.Println("  msg bytes  closed-world log  open-world log")
		for _, r := range rows {
			fmt.Printf("  %9d  %16d  %14d\n", r.MsgBytes, r.ClosedLogSize, r.OpenLogSize)
		}
		return
	}

	emit := func(t bench.Table) {
		fmt.Println()
		t.Print(os.Stdout)
		if *obsJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(t); err != nil {
				fatal(err)
			}
		}
	}
	if *table == "1" || *table == "all" {
		srv, cli, err := bench.GenerateTable1(threads, *reps, progress)
		if err != nil {
			fatal(err)
		}
		emit(srv)
		emit(cli)
	}
	if *table == "2" || *table == "all" {
		srv, cli, err := bench.GenerateTable2(threads, *reps, progress)
		if err != nil {
			fatal(err)
		}
		emit(srv)
		emit(cli)
	}
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("djbench: bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("djbench: no thread counts")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "djbench:", err)
	os.Exit(1)
}
