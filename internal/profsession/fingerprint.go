package profsession

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"proof/internal/core"
	"proof/internal/hardware"
)

// canonical is the content-addressed identity of a profiling request:
// every core.Options field that influences the resulting report,
// normalized so that two option values producing the same report hash
// identically. Graphs are hashed by content (graph.Graph.Digest), not
// by pointer, so a rebuilt-but-identical graph still hits.
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
// changes the key. An inline graph is keyed by its content digest
// (graph.Graph.Digest): an admitted graph carries the digest it was
// admitted with, so proofd's edge hashes each posted graph once, and a
// raw graph is hashed here. A graph admitted before shape inference
// keys exactly as the raw graph it was posted as.
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
		c.GraphHash = opts.Graph.Digest()
	}
	payload, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("profsession: fingerprint: %w", err)
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}
