// Command dataviewer renders a saved PRoof report (JSON, as produced by
// `proof -json`) into a self-contained HTML page with SVG roofline
// charts, or prints the text summary. It can also read one report
// straight out of a proofd history store (-store) by record id; list
// the ids with `proofhist query -dir DIR`.
//
//	dataviewer -in report.json -out report.html
//	dataviewer -in report.json -text
//	dataviewer -store /var/lib/proofd/history -id 3:1024 -out report.html
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"proof"
	"proof/internal/histstore"
)

func main() {
	var (
		in   = flag.String("in", "", "input report JSON (required unless -store)")
		out  = flag.String("out", "", "output HTML path")
		text = flag.Bool("text", false, "print the text summary instead")
		topN = flag.Int("top", 15, "layers to show with -text")

		// History-store sourcing: render one record by id instead of
		// reading -in.
		storeDir = flag.String("store", "", "read from this proofd history store instead of -in (needs -id)")
		recordID = flag.String("id", "", "render this stored record (ID column of proofhist query)")
	)
	flag.Parse()

	var data []byte
	switch {
	case *storeDir != "":
		if *recordID == "" {
			fmt.Fprintf(os.Stderr, "dataviewer: -store needs -id; list the record ids with: proofhist query -dir %s\n", *storeDir)
			os.Exit(2)
		}
		st, err := histstore.Open(*storeDir, histstore.Options{})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		if _, data, err = st.GetID(*recordID); err != nil {
			fatal(err)
		}
	case *in != "":
		var err error
		if data, err = os.ReadFile(*in); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "dataviewer: -in or -store is required")
		os.Exit(2)
	}

	var report proof.Report
	if err := json.Unmarshal(data, &report); err != nil {
		fatal(fmt.Errorf("parsing report: %w", err))
	}
	if *text || *out == "" {
		proof.WriteText(os.Stdout, &report, *topN)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(proof.RenderHTML(&report)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dataviewer:", err)
	os.Exit(1)
}
