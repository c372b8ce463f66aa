// Package modelfmt serializes model graphs to a self-contained JSON
// format, PRoof's stand-in for the ONNX file a real deployment would
// feed the CLI. The format stores exactly what PRoof's analysis needs:
// nodes with attributes, tensors with shapes/dtypes/parameter flags, and
// graph IO lists.
package modelfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"proof/internal/graph"
	"proof/internal/jsonread"
)

// FormatVersion is the current file format version.
const FormatVersion = 1

// file is the on-disk envelope.
type file struct {
	FormatVersion int          `json:"format_version"`
	Producer      string       `json:"producer"`
	Graph         *graph.Graph `json:"graph"`
}

// Save writes the graph as JSON.
func Save(g *graph.Graph, w io.Writer) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("modelfmt: refusing to save invalid graph: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file{FormatVersion: FormatVersion, Producer: "proof", Graph: g})
}

// fileFields are file's json names in field order.
var fileFields = jsonread.Fields{"format_version", "producer", "graph"}

// Load reads a graph from JSON and validates it. It reads the graph as
// proofd reads an inline one (graph.ReadJSON; see jsonread for the
// accept set), so an unknown or repeated field, or anything after the
// document, is an error here too.
func Load(r io.Reader) (*graph.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("modelfmt: read: %w", err)
	}
	var f file
	jr := jsonread.NewReader(data)
	if jr.Object() {
		var seen uint64
		for i := jr.Field(fileFields, &seen); i >= 0; i = jr.Field(fileFields, &seen) {
			switch i {
			case 0:
				f.FormatVersion = jr.Int()
			case 1:
				f.Producer = jr.String()
			case 2:
				f.Graph = graph.ReadJSON(jr)
			}
		}
	}
	if err := jr.End(); err != nil {
		return nil, fmt.Errorf("modelfmt: decode: %w", err)
	}
	if f.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("modelfmt: unsupported format version %d (want %d)", f.FormatVersion, FormatVersion)
	}
	if f.Graph == nil {
		return nil, fmt.Errorf("modelfmt: file contains no graph")
	}
	if f.Graph.Tensors == nil {
		f.Graph.Tensors = map[string]*graph.Tensor{}
	}
	if err := f.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("modelfmt: invalid graph: %w", err)
	}
	return f.Graph, nil
}

// SaveFile writes the graph to a file path.
func SaveFile(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Save(g, f)
}

// LoadFile reads a graph from a file path.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
