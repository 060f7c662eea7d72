package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"elpc/internal/model"
	"elpc/internal/plainjson"
)

// decode is the uniform request-body validation every POST handler runs:
// the body is size-bounded before any decoding work happens, and unknown
// fields are rejected at every level so a misspelled parameter fails
// loudly as invalid_request instead of being silently dropped. The
// planning, simulate and batch endpoints use decodeBody, which answers
// every body exactly as decode would.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	return decodeJSON(r.Body, v)
}

// decodeJSON decodes the first JSON value src yields into v, rejecting
// unknown fields.
func decodeJSON(src io.Reader, v any) error {
	if err := model.DecodeStrict(src, v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// decodeRequest decodes a /v1/simulate body (readPlainRequest) or a
// /v1/batch body (readPlainBatch): it reads the whole body with readBody
// and decodes it with decodeBody.
func decodeRequest[T any](w http.ResponseWriter, r *http.Request, readPlain plainReader[T]) (*T, error) {
	body, err := readBody(w, r)
	return decodeBody(body, err, readPlain)
}

// readBody reads the whole request body, bounded by MaxRequestBytes like
// decode; the error is the one that cut it short, if any.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// plainReader reads one T at r's cursor in the plain form.
type plainReader[T any] func(r *plainjson.Reader, v *T) error

// decodeBody decodes a request body into a T, with the result and the
// error decode would give for the same bytes: strict encoding/json, which
// rejects unknown fields at every level and ignores anything after the
// first value. readErr is the error that cut the body short, if any.
//
// A valid body in the plain form (see package plainjson) is read in one
// pass by readPlain, and encoding/json never sees it. Any other body goes
// to decodeJSON, followed by readErr as a streaming decoder would meet it;
// that includes a plain body whose network or pipeline fails validation,
// since encoding/json reports a syntax error anywhere in the body ahead of
// an invalid value.
func decodeBody[T any](body []byte, readErr error, readPlain plainReader[T]) (*T, error) {
	var v T
	if err := readPlain(plainjson.NewReader(body), &v); err == nil {
		return &v, nil
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var ref T
	if err := decodeJSON(src, &ref); err != nil {
		return nil, err
	}
	return &ref, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// planKeys are wireRequest's JSON member names, in field order.
var planKeys = []string{"network", "pipeline", "src", "dst", "cost", "op",
	"delay_budget_ms", "points", "allow_similar", "frames", "pace_ms"}

// costKeys are model.CostOptions' JSON member names; batchKeys are
// batchWire's.
var (
	costKeys  = []string{"IncludeMLDInDelay"}
	batchKeys = []string{"requests"}
)

// readPlainRequest reads one wireRequest object at r's cursor.
func readPlainRequest(r *plainjson.Reader, w *wireRequest) error {
	return r.Object(planKeys, func(i int) (err error) {
		switch i {
		case 0:
			w.Network, err = model.ReadPlainNetwork(r)
		case 1:
			w.Pipeline, err = model.ReadPlainPipeline(r)
		case 2:
			var id int
			id, err = r.Int()
			w.Src = model.NodeID(id)
		case 3:
			var id int
			id, err = r.Int()
			w.Dst = model.NodeID(id)
		case 4:
			w.Cost = &model.CostOptions{}
			err = r.Object(costKeys, func(int) (err error) {
				w.Cost.IncludeMLDInDelay, err = r.Bool()
				return err
			})
		case 5:
			var op string
			op, err = r.String()
			w.Op = Op(op)
		case 6:
			w.DelayBudgetMs, err = r.Float()
		case 7:
			w.Points, err = r.Int()
		case 8:
			w.AllowSimilar, err = r.Bool()
		case 9:
			w.Frames, err = r.Int()
		default:
			w.PaceMs, err = r.Float()
		}
		return err
	})
}

// readPlainBatch reads a batchWire object at r's cursor.
func readPlainBatch(r *plainjson.Reader, b *batchWire) error {
	return r.Object(batchKeys, func(int) error {
		b.Requests = []wireRequest{}
		return r.Array(func() error {
			b.Requests = append(b.Requests, wireRequest{})
			return readPlainRequest(r, &b.Requests[len(b.Requests)-1])
		})
	})
}
