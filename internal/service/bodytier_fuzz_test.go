package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"elpc/internal/service"
)

// corpusBodies reads the []byte values of the fuzz corpus files in dir,
// written as go test writes them: a "go test fuzz v1" line, then one
// []byte("...") line.
func corpusBodies(tb testing.TB, dir string) [][]byte {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus in %s: %v", dir, err)
	}
	var out [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		header, value, _ := strings.Cut(string(data), "\n")
		lit, ok := strings.CutPrefix(strings.TrimSpace(value), "[]byte(")
		if header != "go test fuzz v1" || !ok {
			tb.Fatalf("%s: not a one-value []byte corpus file", p)
		}
		body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(body))
	}
	return out
}

// FuzzPlanBodyRepeat POSTs each body twice to each planning route of a
// fresh server; the second is the repeat the body tier answers when the
// first was answered. Both must carry the same status: 200, 400 or 422. A
// 200 must repeat the first answer byte for byte, except that it is
// cached, with solve_ms 0; any other status must repeat the error envelope
// byte for byte. It is seeded with the bench-shaped bodies and the
// FuzzDecodePlanRequest corpus; its own corpus
// (testdata/fuzz/FuzzPlanBodyRepeat) adds a budget, points, a cost block,
// allow_similar, reordered members, an escaped op, an infeasible problem,
// points and frames past their limits, an invalid endpoint, malformed
// JSON and bytes after the object.
func FuzzPlanBodyRepeat(f *testing.F) {
	for _, body := range benchShapedBodies(f) {
		f.Add(body)
	}
	for _, body := range corpusBodies(f, filepath.Join("testdata", "fuzz", "FuzzDecodePlanRequest")) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := service.NewServer(service.Options{Workers: 1})
		defer srv.Close()
		h := srv.Handler()
		post := func(path string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}
		for _, path := range []string{"/v1/mindelay", "/v1/maxframerate", "/v1/front"} {
			first, second := post(path), post(path)
			if first.Code != second.Code {
				t.Fatalf("%s: status %d, then %d:\n%s\n%s", path, first.Code, second.Code, first.Body, second.Body)
			}
			switch first.Code {
			case http.StatusOK:
				var res service.Result
				if err := json.Unmarshal(first.Body.Bytes(), &res); err != nil {
					t.Fatalf("%s: %v: %s", path, err, first.Body)
				}
				res.Cached, res.SolveMs = true, 0
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				enc.SetIndent("", "  ")
				if err := enc.Encode(res); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(second.Body.Bytes(), want.Bytes()) {
					t.Fatalf("%s: repeat answered\n%s\nwant\n%s", path, second.Body, want.Bytes())
				}
			case http.StatusBadRequest, http.StatusUnprocessableEntity:
				if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
					t.Fatalf("%s: envelope\n%s\nthen\n%s", path, first.Body, second.Body)
				}
			default:
				t.Fatalf("%s: status %d: %s", path, first.Code, first.Body)
			}
		}
	})
}
