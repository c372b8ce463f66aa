// Command proofhist operates on a proofd profile-history store
// (internal/histstore) offline: query stored reports, run roofline
// drift detection, verify on-disk integrity and compact away corrupt
// or dead bytes — all without a running proofd (open the store
// directory directly; proofd should not be writing to it
// concurrently).
//
//	proofhist query  -dir /var/lib/proofd/history -model resnet-50
//	proofhist query  -dir ... -show 3:1024            # one report, verbatim
//	proofhist drift  -dir ... -threshold 0.1          # exit 1 when drifted
//	proofhist verify -dir ...                         # exit 1 when corrupt
//	proofhist compact -dir ...
//	proofhist stats  -dir ...
//
// Exit codes: 0 clean, 1 drift detected / verification failed, 2 usage
// or store errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"proof/internal/histstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprint(stderr, `usage: proofhist <command> -dir <store> [flags]

commands:
  query    list stored reports (filters: -model, -platform, -git-rev; -show <id> prints one report)
  drift    roofline drift detection per series (model at one configuration); exit 1 when any drifted
  verify   re-read every segment checking frames and CRCs; exit 1 on any defect
  compact  rewrite live records into fresh segments, dropping corrupt records and dead bytes
  stats    store summary (segments, records, bytes, recovery, last append)

run 'proofhist <command> -h' for the command's flags
`)
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "query":
		return cmdQuery(rest, stdout, stderr)
	case "drift":
		return cmdDrift(rest, stdout, stderr)
	case "verify":
		return cmdVerify(rest, stdout, stderr)
	case "compact":
		return cmdCompact(rest, stdout, stderr)
	case "stats":
		return cmdStats(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	}
	fmt.Fprintf(stderr, "proofhist: unknown command %q\n\n", cmd)
	return usage(stderr)
}

// openStore opens the store read-write (compact needs it) with usage
// errors mapped to exit-code semantics by the caller.
func openStore(dir string, stderr io.Writer) (*histstore.Store, int) {
	if dir == "" {
		fmt.Fprintln(stderr, "proofhist: -dir is required")
		return nil, 2
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		fmt.Fprintf(stderr, "proofhist: %s is not an existing store directory\n", dir)
		return nil, 2
	}
	st, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		fmt.Fprintf(stderr, "proofhist: opening %s: %v\n", dir, err)
		return nil, 2
	}
	return st, 0
}

func cmdQuery(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proofhist query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("dir", "", "history store directory")
		model    = fs.String("model", "", "filter: model key")
		platform = fs.String("platform", "", "filter: platform key")
		gitRev   = fs.String("git-rev", "", "filter: exact git revision")
		limit    = fs.Int("limit", 20, "page size (0 = everything)")
		offset   = fs.Int("offset", 0, "page offset")
		jsonOut  = fs.Bool("json", false, "print entries as JSON instead of the table")
		show     = fs.String("show", "", "print one stored report verbatim by record id (from the ID column)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, stderr)
	if code != 0 {
		return code
	}
	defer st.Close()

	if *show != "" {
		_, body, err := st.GetID(*show)
		if err != nil {
			fmt.Fprintln(stderr, "proofhist:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", body)
		return 0
	}

	entries, total, err := st.Query(histstore.Query{
		Model: *model, Platform: *platform, GitRev: *gitRev,
		Offset: *offset, Limit: *limit,
	})
	if err != nil {
		fmt.Fprintln(stderr, "proofhist:", err)
		return 2
	}
	if *jsonOut {
		type row struct {
			ID string `json:"id"`
			histstore.Meta
		}
		rows := make([]row, len(entries))
		for i, e := range entries {
			rows[i] = row{ID: e.ID, Meta: e.Meta}
		}
		return writeJSON(stdout, stderr, map[string]any{"entries": rows, "total": total})
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tTIME\tMODEL\tPLATFORM\tREV\tBOUND\tLATENCY\tBATCH")
	for _, e := range entries {
		m := e.Meta
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\n",
			e.ID, m.Time().UTC().Format(time.RFC3339), m.Model, m.Platform,
			m.Revision(), m.Bound, time.Duration(m.LatencyNS), m.Batch)
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d of %d record(s)\n", len(entries), total)
	return 0
}

func cmdDrift(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proofhist drift", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir       = fs.String("dir", "", "history store directory")
		model     = fs.String("model", "", "restrict to one model")
		platform  = fs.String("platform", "", "restrict to one platform")
		threshold = fs.Float64("threshold", 0, "relative attainable-FLOPS / latency-percentile change counting as drift (0 = 0.05)")
		baseRev   = fs.String("baseline-git-rev", "", "pin the baseline revision by git-rev prefix")
		baseDesc  = fs.String("baseline-descriptor-hash", "", "pin the baseline revision by descriptor-hash prefix")
		jsonOut   = fs.Bool("json", false, "print the full drift report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, stderr)
	if code != 0 {
		return code
	}
	defer st.Close()

	metas, err := st.Metas(histstore.Query{Model: *model, Platform: *platform})
	if err != nil {
		fmt.Fprintln(stderr, "proofhist:", err)
		return 2
	}
	rep := histstore.ComputeDrift(metas, histstore.DriftOptions{
		RelThreshold:     *threshold,
		BaselineGitRev:   *baseRev,
		BaselineDescHash: *baseDesc,
	})
	if *jsonOut {
		if code := writeJSON(stdout, stderr, rep); code != 0 {
			return code
		}
	} else {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "MODEL\tPLATFORM\tCONFIG\tBASELINE\tLATEST\tBOUND\tATTN%\tP50%\tDRIFT")
		for _, k := range rep.Keys {
			bound := k.Baseline.Bound
			if k.Latest.Bound != k.Baseline.Bound {
				bound = k.Baseline.Bound + "->" + k.Latest.Bound
			}
			verdict := "ok"
			switch {
			case k.SingleRevision:
				verdict = "single-rev"
			case k.Drifted:
				verdict = "DRIFTED"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%+.1f\t%+.1f\t%s\n",
				k.Model, k.Platform, configLabel(k), revLabel(k.Baseline), revLabel(k.Latest),
				bound, 100*k.AttainableDelta, 100*k.LatencyP50Delta, verdict)
		}
		tw.Flush()
		fmt.Fprintf(stdout, "%d of %d series drifted (threshold %.0f%%)\n",
			rep.DriftedKeys, len(rep.Keys), 100*rep.Threshold)
		for _, k := range rep.Keys {
			for _, reason := range k.Reasons {
				fmt.Fprintf(stdout, "  %s/%s %s: %s\n", k.Model, k.Platform, configLabel(k), reason)
			}
		}
	}
	if rep.DriftedKeys > 0 {
		return 1
	}
	return 0
}

// configLabel names a series by the configuration it echoes.
func configLabel(k histstore.KeyDrift) string {
	return fmt.Sprintf("%s/bs%d/%s/%s", k.Backend, k.Batch, k.DType, k.Mode)
}

func revLabel(rs histstore.RevisionStats) string {
	m := histstore.Meta{GitRev: rs.GitRev, DescriptorHash: rs.DescriptorHash}
	if r := m.Revision(); r != "" {
		return r
	}
	return "-"
}

func cmdVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proofhist verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "history store directory")
	jsonOut := fs.Bool("json", false, "print the verification report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, stderr)
	if code != 0 {
		return code
	}
	defer st.Close()

	rep, verr := st.Verify()
	if *jsonOut {
		if code := writeJSON(stdout, stderr, rep); code != 0 {
			return code
		}
	} else {
		fmt.Fprintf(stdout, "segments %d, records %d (indexed %d), corrupt %d, dead bytes %d\n",
			rep.Segments, rep.Records, rep.IndexedRecords, rep.CorruptRecords, rep.DeadBytes)
		for _, p := range rep.Problems {
			fmt.Fprintln(stdout, " ", p)
		}
	}
	if verr != nil {
		fmt.Fprintln(stderr, "proofhist: verification FAILED (compact to repair, or restore from a replica)")
		return 1
	}
	fmt.Fprintln(stdout, "store verified clean")
	return 0
}

func cmdCompact(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proofhist compact", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "history store directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, stderr)
	if code != 0 {
		return code
	}
	defer st.Close()

	before := st.Stats()
	if err := st.Compact(); err != nil {
		fmt.Fprintln(stderr, "proofhist: compact:", err)
		return 2
	}
	after := st.Stats()
	fmt.Fprintf(stdout, "compacted: %d -> %d segment(s), %d -> %d byte(s), %d record(s) kept\n",
		before.Segments, after.Segments, before.Bytes, after.Bytes, after.Records)
	return 0
}

func cmdStats(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proofhist stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "history store directory")
	jsonOut := fs.Bool("json", false, "print stats as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, stderr)
	if code != 0 {
		return code
	}
	defer st.Close()

	stats := st.Stats()
	if *jsonOut {
		return writeJSON(stdout, stderr, stats)
	}
	fmt.Fprintf(stdout, "segments     %d\n", stats.Segments)
	fmt.Fprintf(stdout, "records      %d\n", stats.Records)
	fmt.Fprintf(stdout, "bytes        %d\n", stats.Bytes)
	if stats.SkippedRecords > 0 || stats.TruncatedBytes > 0 {
		fmt.Fprintf(stdout, "recovered    skipped %d corrupt record(s), truncated %d torn byte(s)\n",
			stats.SkippedRecords, stats.TruncatedBytes)
	}
	if !stats.LastAppend.IsZero() {
		fmt.Fprintf(stdout, "last append  %s\n", stats.LastAppend.UTC().Format(time.RFC3339))
	}
	return 0
}

func writeJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(stderr, "proofhist:", err)
		return 2
	}
	return 0
}
