package histstore

import (
	"errors"
	"time"

	"proof/internal/obs"
)

// RegisterMetrics wires a store (and optionally its async writer; nil
// is fine) into an obs.Registry under the proofd_store_* family names.
// Registration conflicts surface as an error for the caller to treat
// as the startup bug they are, matching the serving stack's pattern.
func RegisterMetrics(reg *obs.Registry, s *Store, w *Writer) error {
	errs := []error{
		reg.CounterFunc("proofd_store_appends_total",
			"Reports appended to the history store.",
			func() float64 { return float64(s.appends.Load()) }),
		reg.CounterFunc("proofd_store_append_bytes_total",
			"Bytes appended to history segments.",
			func() float64 { return float64(s.appendBytes.Load()) }),
		reg.CounterFunc("proofd_store_read_bytes_total",
			"Bytes read from history segments (record reads, recovery and verification scans).",
			func() float64 { return float64(s.readBytes.Load()) }),
		reg.GaugeFunc("proofd_store_segments",
			"Segment files in the history store.",
			func() float64 { return float64(s.Stats().Segments) }),
		reg.GaugeFunc("proofd_store_records",
			"Records indexed in the history store.",
			func() float64 { return float64(s.Stats().Records) }),
		reg.GaugeFunc("proofd_store_bytes",
			"Total on-disk size of history segments.",
			func() float64 { return float64(s.segBytes.Load()) }),
		reg.CounterFunc("proofd_store_skipped_records_total",
			"CRC-corrupt records skipped by recovery scans.",
			func() float64 { return float64(s.skipped.Load()) }),
		reg.CounterFunc("proofd_store_truncated_bytes_total",
			"Torn-tail bytes discarded by crash recovery.",
			func() float64 { return float64(s.truncated.Load()) }),
		reg.GaugeFunc("proofd_store_last_append_age_seconds",
			"Seconds since the newest stored record (-1 when the store is empty).",
			func() float64 {
				ns := s.lastAppendNS.Load()
				if ns == 0 {
					return -1
				}
				return time.Since(time.Unix(0, ns)).Seconds()
			}),
	}
	if w != nil {
		errs = append(errs,
			reg.CounterFunc("proofd_store_dropped_writes_total",
				"History records dropped by a full or closed write queue.",
				func() float64 { return float64(w.Dropped()) }),
			reg.CounterFunc("proofd_store_write_errors_total",
				"History store append failures on the async writer.",
				func() float64 { return float64(w.Errors()) }),
		)
	}
	return errors.Join(errs...)
}
