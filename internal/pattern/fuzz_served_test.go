package pattern_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neurotest/internal/pattern"
	"neurotest/internal/service"
)

// serveSuite runs one real generate request through the neurotestd handler
// and returns the binary artifact exactly as the service would hand it to a
// test floor — so the fuzz corpus is seeded with production-shaped images,
// not just the synthetic sampleSet fixtures.
func serveSuite(f *testing.F, ts *httptest.Server, body string) []byte {
	f.Helper()
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		f.Fatal(err)
	}
	defer resp.Body.Close()
	var gen struct {
		Key  string `json:"key"`
		Href string `json:"href"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil || resp.StatusCode != http.StatusOK {
		f.Fatalf("generate %s: HTTP %d, %v", body, resp.StatusCode, err)
	}
	aresp, err := http.Get(ts.URL + gen.Href)
	if err != nil {
		f.Fatal(err)
	}
	defer aresp.Body.Close()
	blob, err := io.ReadAll(aresp.Body)
	if err != nil || aresp.StatusCode != http.StatusOK {
		f.Fatalf("artifact %s: HTTP %d, %v", gen.Href, aresp.StatusCode, err)
	}
	return blob
}

// FuzzServedSuites fuzzes the binary decoder from seeds captured off real
// service responses: single-kind suites for both paper models and the full
// merged program for a small family. The invariant matches FuzzReadBinary —
// whatever decodes must validate and re-encode to an image of BinarySize
// bytes that decodes again.
func FuzzServedSuites(f *testing.F) {
	cfg := service.DefaultConfig()
	cfg.Workers = 1
	srv := service.New(cfg)
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	seeds := []string{
		// The paper's two benchmark models, single-kind suites (the merged
		// programs are 16-23 MB — too heavy for a corpus seed).
		`{"arch":[576,256,32,10],"kind":"NASF"}`,
		`{"arch":[576,256,64,32,10],"kind":"NASF"}`,
		// A small family exercising the merged all-models program and the
		// variation-aware regime.
		`{"arch":[24,16,8,4]}`,
		`{"arch":[24,16,8,4],"variation_aware":true,"kind":"SWF"}`,
	}
	for _, body := range seeds {
		blob := serveSuite(f, hts, body)
		f.Add(blob)
		// A truncated production image probes mid-structure EOF handling.
		f.Add(blob[:len(blob)*2/3])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := pattern.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := ts.Validate(); verr != nil {
			t.Fatalf("decoded set fails validation: %v", verr)
		}
		var out bytes.Buffer
		if werr := pattern.WriteBinary(&out, ts); werr != nil {
			t.Fatalf("re-encode failed: %v", werr)
		}
		if n := pattern.BinarySize(ts); n != out.Len() {
			t.Fatalf("BinarySize %d, re-encoded %d bytes", n, out.Len())
		}
		reread, rerr := pattern.ReadBinary(bytes.NewReader(out.Bytes()))
		if rerr != nil {
			t.Fatalf("re-encoded image does not decode: %v", rerr)
		}
		if err := reread.Validate(); err != nil {
			t.Fatalf("re-encoded set fails validation: %v", err)
		}
	})
}
