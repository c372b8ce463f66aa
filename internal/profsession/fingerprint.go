package profsession

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"proof/internal/core"
	"proof/internal/hardware"
	"proof/internal/memo"
)

// canonical is the content-addressed identity of a profiling request:
// every core.Options field that influences the resulting report,
// normalized so that two option values producing the same report hash
// identically. Graphs are hashed by content (their canonical JSON),
// not by pointer, so a rebuilt-but-identical graph still hits.
type canonical struct {
	Model            string          `json:"model,omitempty"`
	GraphHash        string          `json:"graph_hash,omitempty"`
	Platform         string          `json:"platform"`
	Backend          string          `json:"backend,omitempty"`
	Batch            int             `json:"batch,omitempty"`
	DType            string          `json:"dtype,omitempty"`
	Mode             core.Mode       `json:"mode,omitempty"`
	Clocks           hardware.Clocks `json:"clocks"`
	Seed             uint64          `json:"seed"`
	MeasuredRoofline bool            `json:"measured_roofline,omitempty"`
	IgnoreSupport    bool            `json:"ignore_support,omitempty"`
}

// Fingerprint derives the canonical cache key of a profiling request.
// Options that differ only in ways the pipeline normalizes away (the
// empty mode vs ModePredicted) map to the same fingerprint; anything
// that can change the report — model name, graph content, platform,
// backend, batch, dtype, mode, clocks, jitter seed, roofline flags —
// changes the key. An inline graph is keyed by opts.GraphDigest when it
// is set (it must equal memo.GraphDigest(opts.Graph)), so a caller that
// already hashed the graph does not hash it again.
func Fingerprint(opts core.Options) (string, error) {
	c := canonical{
		Model:            opts.Model,
		Platform:         opts.Platform,
		Backend:          opts.Backend,
		Batch:            opts.Batch,
		Mode:             opts.Mode,
		Clocks:           opts.Clocks,
		Seed:             opts.Seed,
		MeasuredRoofline: opts.MeasuredRoofline,
		IgnoreSupport:    opts.IgnoreSupport,
	}
	if c.Mode == "" {
		c.Mode = core.ModePredicted
	}
	if opts.DType.Valid() {
		c.DType = opts.DType.String()
	}
	if opts.Graph != nil {
		// Model stays in the key: with a graph it is the report's
		// display name, which the graph content does not cover.
		h, err := graphDigest(opts)
		if err != nil {
			return "", err
		}
		c.GraphHash = h
	}
	payload, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("profsession: fingerprint: %w", err)
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// graphDigest returns opts.GraphDigest, computing memo.GraphDigest of
// the inline graph when it is unset.
func graphDigest(opts core.Options) (string, error) {
	if opts.GraphDigest != "" {
		return opts.GraphDigest, nil
	}
	d, err := memo.GraphDigest(opts.Graph)
	if err != nil {
		return "", fmt.Errorf("profsession: graph hash: %w", err)
	}
	return d, nil
}
