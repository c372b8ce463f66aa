package core

import (
	"errors"
	"fmt"

	"proof/internal/backend"
	"proof/internal/hardware"
	"proof/internal/memo"
	"proof/internal/models"
)

// Every error Resolve returns matches one of these under errors.Is, so
// an API edge maps a refused request to its status without reading the
// message. ErrUnsupported means the platform does not run the zoo
// model's family (see Options.IgnoreSupport); ErrInvalidOption is a
// negative batch, an unknown mode, or a clock or CPU cluster count
// above the platform's maximum.
var (
	ErrUnknownModel    = errors.New("unknown model")
	ErrUnknownPlatform = errors.New("unknown platform")
	ErrUnknownBackend  = errors.New("unknown backend")
	ErrUnsupported     = errors.New("unsupported model family")
	ErrInvalidOption   = errors.New("invalid option")
)

// resolveError reads as its cause and matches its kind, one of the
// sentinels above.
type resolveError struct{ kind, cause error }

func (e *resolveError) Error() string   { return e.cause.Error() }
func (e *resolveError) Unwrap() []error { return []error{e.kind, e.cause} }

// Resolved is a request with every default applied, and its key.
type Resolved struct {
	// Options is the request as it runs: Model is the display name
	// (Graph.Name when a graph comes without one), and Backend, Batch,
	// DType, Mode and Clocks hold the applied defaults, so resolving
	// Options again gives the same Resolved.
	Options
	// Plat is the platform Options.Platform names.
	Plat *hardware.Platform
	// Key is memo.PlanKey over the display name, the model source (zoo
	// key or graph digest) and the resolved memo.Binding. A session's
	// report store and its memo store both key reports by it.
	Key string

	runtime backend.Backend
}

// Series is the request's identity without its seed and its platform
// descriptor hash: runs of one series differ only in code or hardware
// revision, or in jitter samples, so drift compares them. It is Key's
// hash over the same fields with those two left out, and is hashed on
// every call.
func (r Resolved) Series() string {
	b := r.binding()
	b.Seed, b.PlatformHash = 0, ""
	return memo.PlanKey(r.Model, r.source(), b)
}

// source names the model content: the zoo key, or the graph's digest
// (an admitted graph carries it; a raw one is hashed). It is derived
// on use rather than kept, so a zoo request's source stays off the
// heap.
func (r Resolved) source() string {
	if r.Graph != nil {
		return "graph:" + r.Graph.Digest()
	}
	return "zoo:" + r.Model
}

// binding is the resolved configuration Key frames. It carries the
// *requested* data type: a quantized graph runs at int8, but that
// follows from its content, which the source covers.
func (r Resolved) binding() memo.Binding {
	return memo.Binding{
		Backend:          r.Backend,
		PlatformKey:      r.Plat.Key,
		PlatformHash:     r.Plat.DescriptorHash(),
		DType:            r.DType,
		Batch:            r.Batch,
		Mode:             string(r.Mode),
		Seed:             r.Seed,
		Clocks:           r.Clocks,
		MeasuredRoofline: r.MeasuredRoofline,
	}
}

// Resolve is the one place a request's platform defaults are applied
// and its key derived; the API edge, the session and the pipeline each
// call it on the Options they hold. It looks up the platform, the
// backend ("" = the platform's runtime) and, for a zoo request, the
// model and the platform's support for its family (unless
// IgnoreSupport, which is not keyed: it changes nothing on a supported
// pair). It applies batch 0 = DefaultBatch, an invalid dtype =
// DefaultDType, mode "" = ModePredicted and the platform's clock rule
// (hardware.Platform.ResolveClocks), after refusing a GPU, EMC or CPU
// clock above its domain's maximum, or more CPU clusters than the
// platform has.
func Resolve(opts Options) (Resolved, error) {
	fail := func(kind, cause error) (Resolved, error) {
		return Resolved{}, &resolveError{kind, cause}
	}
	r := Resolved{Options: opts}
	var info models.Info
	if opts.Graph != nil {
		if r.Model == "" {
			r.Model = opts.Graph.Name
		}
	} else {
		var err error
		if info, err = lookupModel(opts.Model); err != nil {
			return Resolved{}, err
		}
	}
	plat, err := hardware.Get(opts.Platform)
	if err != nil {
		return fail(ErrUnknownPlatform, err)
	}
	r.Plat = plat
	if r.Backend == "" {
		r.Backend = plat.Runtime
	}
	if r.runtime, err = backend.Get(r.Backend); err != nil {
		return fail(ErrUnknownBackend, err)
	}
	if r.Batch < 0 {
		return fail(ErrInvalidOption, fmt.Errorf("core: batch must be >= 0, got %d", r.Batch))
	}
	if r.Mode, err = ParseMode(string(r.Mode)); err != nil {
		return fail(ErrInvalidOption, err)
	}
	if c, d := r.Clocks, plat.Clocks; d != nil &&
		(c.GPUMHz > d.GPUMaxMHz || c.EMCMHz > d.EMCMaxMHz || c.CPUMHz > d.CPUMaxMHz || c.CPUClusters > d.CPUClusters) {
		return fail(ErrInvalidOption, fmt.Errorf("core: gpu/emc/cpu clocks %d/%d/%d MHz or %d CPU clusters exceed %s's maxima of %d/%d/%d MHz and %d clusters",
			c.GPUMHz, c.EMCMHz, c.CPUMHz, c.CPUClusters, plat.Key, d.GPUMaxMHz, d.EMCMaxMHz, d.CPUMaxMHz, d.CPUClusters))
	}
	if opts.Graph == nil && !r.IgnoreSupport && !plat.Supports(info.Type) {
		return fail(ErrUnsupported, fmt.Errorf("core: platform %s does not support %s models (model %s failed to run in the paper's evaluation as well)",
			plat.Key, info.Type, info.Key))
	}
	if r.Batch == 0 {
		r.Batch = plat.DefaultBatch
	}
	if !r.DType.Valid() {
		r.DType = plat.DefaultDType
	}
	r.Clocks = plat.ResolveClocks(r.Clocks)
	r.Key = memo.PlanKey(r.Model, r.source(), r.binding())
	return r, nil
}

// lookupModel resolves a zoo key.
func lookupModel(name string) (models.Info, error) {
	info, ok := models.Lookup(name)
	if !ok {
		return info, fmt.Errorf("core: %w %q", ErrUnknownModel, name)
	}
	return info, nil
}
