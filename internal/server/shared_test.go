package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"proof/internal/core"
	"proof/internal/core/coretest"
	"proof/internal/profsession"
)

// TestStoredReportsNeverWritten: every hit decodes a report of its own
// from the session's stored encoding, which proofd encodes into its
// response while library callers of the same session may write theirs.
// After a few cold-zoo keys are warmed, 8 goroutines send /v1/profile
// hits while 2 others profile the same keys through Session.ProfileCtx
// and write every slice of their reports. Every response must equal the
// key's first, byte for byte; under -race a write that reaches another
// caller's report also fails as a data race.
func TestStoredReportsNeverWritten(t *testing.T) {
	sess := profsession.New(0)
	_, ts := newTestServer(t, Config{Session: sess, MaxInflight: 8})
	keys := []core.Options{
		{Model: "vit-t", Platform: "a100", Batch: 1, Seed: 11},
		{Model: "mlp-mixer", Platform: "xeon-6330", Batch: 2, Seed: 12},
		{Model: "shufflenetv2-0.5", Platform: "npu3720", Batch: 4, Seed: 13},
	}
	post := func(o core.Options) (string, []byte, error) {
		body := fmt.Sprintf(`{"model":%q,"platform":%q,"batch":%d,"seed":%d}`, o.Model, o.Platform, o.Batch, o.Seed)
		resp, err := http.Post(ts.URL+"/v1/profile", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return "", nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return resp.Header.Get("X-Cache"), b, err
	}
	first := make([][]byte, len(keys))
	for i, o := range keys {
		cache, b, err := post(o)
		if err != nil || cache != "miss" {
			t.Fatalf("warming %s/%s: X-Cache %q, err %v", o.Model, o.Platform, cache, err)
		}
		first[i] = b
	}

	const rounds = 6
	errs := make(chan error, 10*rounds)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				i := (g + n) % len(keys)
				cache, b, err := post(keys[i])
				switch {
				case err != nil:
					errs <- err
				case cache != "hit":
					errs <- fmt.Errorf("%s: X-Cache %q, want hit", keys[i].Model, cache)
				case !bytes.Equal(b, first[i]):
					errs <- fmt.Errorf("%s: a hit answered different bytes from the first response", keys[i].Model)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				rep, err := sess.ProfileCtx(context.Background(), keys[(g+n)%len(keys)])
				if err != nil {
					errs <- err
					continue
				}
				coretest.WriteEverySlice(rep)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := sess.Stats(); st.Misses != int64(len(keys)) {
		t.Errorf("session counted %d misses, want only the %d warm-ups", st.Misses, len(keys))
	}
}
