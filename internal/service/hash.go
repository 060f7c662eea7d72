package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"elpc/internal/model"
)

// hashVersion is folded into every canonical hash so the key space can be
// invalidated wholesale if the serialization or the cost model ever changes.
const hashVersion = "elpc-problem-v2"

// structuralHashVersion versions the similarity-tier key space independently
// of the exact-solution key space.
const structuralHashVersion = "elpc-structural-v2"

// canonicalWriter streams a problem's binary canonical form into SHA-256
// through a small fixed buffer. Every integer and float is 8 bytes
// little-endian (floats as their IEEE-754 bits), a bool is one byte, a
// string is its length then its bytes, and every list is its length then
// its elements — so the encoding is injective, and two problems share a
// hash only if every field written is equal.
type canonicalWriter struct {
	h   hash.Hash
	n   int
	buf [512]byte
	// err records the first NaN or ±Inf written: such a value has no
	// canonical form, so the hash fails.
	err error
}

func newCanonicalWriter(version string) *canonicalWriter {
	w := &canonicalWriter{h: sha256.New()}
	w.str(version)
	return w
}

// room flushes the buffer unless k more bytes fit.
func (w *canonicalWriter) room(k int) {
	if w.n+k > len(w.buf) {
		w.h.Write(w.buf[:w.n]) // hash.Hash.Write never fails
		w.n = 0
	}
}

func (w *canonicalWriter) u64(v uint64) {
	w.room(8)
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

func (w *canonicalWriter) int(v int) { w.u64(uint64(int64(v))) }

func (w *canonicalWriter) float(v float64) {
	if w.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		w.err = fmt.Errorf("unsupported value: %v", v)
	}
	w.u64(math.Float64bits(v))
}

func (w *canonicalWriter) bool(v bool) {
	w.room(1)
	w.buf[w.n] = 0
	if v {
		w.buf[w.n] = 1
	}
	w.n++
}

func (w *canonicalWriter) str(s string) {
	w.int(len(s))
	for len(s) > 0 {
		w.room(1)
		k := copy(w.buf[w.n:], s)
		w.n += k
		s = s[k:]
	}
}

// problemTail writes every module field and the problem's endpoints and cost
// options: the part of the form Hash and StructuralHash share.
func (w *canonicalWriter) problemTail(p *model.Problem) {
	w.int(len(p.Pipe.Modules))
	for _, m := range p.Pipe.Modules {
		w.int(m.ID)
		w.str(m.Name)
		w.float(m.Complexity)
		w.float(m.InBytes)
		w.float(m.OutBytes)
	}
	w.int(int(p.Src))
	w.int(int(p.Dst))
	w.bool(p.Cost.IncludeMLDInDelay)
}

// sum returns the hex digest, or an error naming the first non-finite
// value written.
func (w *canonicalWriter) sum(what string) (string, error) {
	if w.err != nil {
		return "", fmt.Errorf("service: %s serialization: %w", what, w.err)
	}
	w.h.Write(w.buf[:w.n])
	return hex.EncodeToString(w.h.Sum(nil)), nil
}

// StructuralHash returns the capacity-independent canonical hash of the
// problem: topology (node count and link endpoints), propagation latencies
// (link MLDs — minimum link delay does not scale with load, so it is
// structure, not capacity), pipeline, endpoints, and cost options, with
// node powers and link bandwidths excluded. It keys the solution cache's
// similarity tier — a near-miss lookup that finds the mapping solved for
// the same structural problem under different capacity values, to be
// adapted by re-validating it on the current ones.
func StructuralHash(p *model.Problem) (string, error) {
	if p == nil || p.Net == nil || p.Pipe == nil {
		return "", fmt.Errorf("service: structural hash of incomplete problem")
	}
	w := newCanonicalWriter(structuralHashVersion)
	w.int(p.Net.N())
	w.int(len(p.Net.Links))
	for _, l := range p.Net.Links {
		w.int(int(l.From))
		w.int(int(l.To))
		w.float(l.MLDms)
	}
	w.problemTail(p)
	return w.sum("structural")
}

// Hash returns the canonical hash (hex SHA-256) of the problem instance:
// network, pipeline, endpoints, and cost options. Mappers are deterministic
// functions of exactly these inputs, so the hash is a sound solution-cache
// key for every objective.
func Hash(p *model.Problem) (string, error) {
	if p == nil || p.Net == nil || p.Pipe == nil {
		return "", fmt.Errorf("service: hash of incomplete problem")
	}
	w := newCanonicalWriter(hashVersion)
	w.int(len(p.Net.Nodes))
	for _, n := range p.Net.Nodes {
		w.int(int(n.ID))
		w.str(n.Name)
		w.float(n.Power)
	}
	w.int(len(p.Net.Links))
	for _, l := range p.Net.Links {
		w.int(l.ID)
		w.int(int(l.From))
		w.int(int(l.To))
		w.float(l.BWMbps)
		w.float(l.MLDms)
	}
	w.problemTail(p)
	return w.sum("canonical")
}
