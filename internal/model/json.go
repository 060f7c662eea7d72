package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"elpc/internal/plainjson"
)

// networkJSON is the wire form of a Network.
type networkJSON struct {
	Nodes []Node `json:"nodes"`
	Links []Link `json:"links"`
}

// MarshalJSON implements json.Marshaler.
func (n *Network) MarshalJSON() ([]byte, error) {
	return json.Marshal(networkJSON{Nodes: n.Nodes, Links: n.Links})
}

// UnmarshalJSON implements json.Unmarshaler, revalidating the network.
// Unknown fields are rejected at every level, whichever decoder calls it.
func (n *Network) UnmarshalJSON(data []byte) error {
	var w networkJSON
	if err := DecodeStrict(bytes.NewReader(data), &w); err != nil {
		return err
	}
	built, err := NewNetwork(w.Nodes, w.Links)
	if err != nil {
		return err
	}
	*n = *built
	return nil
}

// Member names of the network and pipeline wire forms, in field order.
var (
	networkKeys  = []string{"nodes", "links"}
	nodeKeys     = []string{"id", "name", "power"}
	linkKeys     = []string{"id", "from", "to", "bw_mbps", "mld_ms"}
	pipelineKeys = []string{"modules"}
	moduleKeys   = []string{"id", "name", "complexity", "in_bytes", "out_bytes"}
)

// ReadPlainNetwork reads the network object at r's cursor and validates it
// with NewNetwork. Input outside the plain form (see package plainjson) is
// plainjson.ErrUnsupported; every other error is NewNetwork's.
func ReadPlainNetwork(r *plainjson.Reader) (*Network, error) {
	var w networkJSON
	err := r.Object(networkKeys, func(i int) error {
		if i == 0 {
			w.Nodes = []Node{}
			return r.Array(func() error {
				w.Nodes = append(w.Nodes, Node{})
				return readNode(r, &w.Nodes[len(w.Nodes)-1])
			})
		}
		w.Links = []Link{}
		return r.Array(func() error {
			w.Links = append(w.Links, Link{})
			return readLink(r, &w.Links[len(w.Links)-1])
		})
	})
	if err != nil {
		return nil, err
	}
	return NewNetwork(w.Nodes, w.Links)
}

func readNode(r *plainjson.Reader, n *Node) error {
	return r.Object(nodeKeys, func(i int) (err error) {
		switch i {
		case 0:
			n.ID, err = readNodeID(r)
		case 1:
			n.Name, err = r.String()
		default:
			n.Power, err = r.Float()
		}
		return err
	})
}

func readLink(r *plainjson.Reader, l *Link) error {
	return r.Object(linkKeys, func(i int) (err error) {
		switch i {
		case 0:
			l.ID, err = r.Int()
		case 1:
			l.From, err = readNodeID(r)
		case 2:
			l.To, err = readNodeID(r)
		case 3:
			l.BWMbps, err = r.Float()
		default:
			l.MLDms, err = r.Float()
		}
		return err
	})
}

func readNodeID(r *plainjson.Reader) (NodeID, error) {
	v, err := r.Int()
	return NodeID(v), err
}

// DecodeStrict decodes the first JSON value src yields into v, rejecting
// unknown fields.
func DecodeStrict(src io.Reader, v any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// pipelineJSON is the wire form of a Pipeline.
type pipelineJSON struct {
	Modules []Module `json:"modules"`
}

// MarshalJSON implements json.Marshaler.
func (p *Pipeline) MarshalJSON() ([]byte, error) {
	return json.Marshal(pipelineJSON{Modules: p.Modules})
}

// UnmarshalJSON implements json.Unmarshaler, revalidating the pipeline.
// Unknown fields are rejected at every level, whichever decoder calls it.
func (p *Pipeline) UnmarshalJSON(data []byte) error {
	var w pipelineJSON
	if err := DecodeStrict(bytes.NewReader(data), &w); err != nil {
		return err
	}
	built, err := NewPipeline(w.Modules)
	if err != nil {
		return err
	}
	*p = *built
	return nil
}

// ReadPlainPipeline reads the pipeline object at r's cursor and validates
// it with NewPipeline. Input outside the plain form (see package plainjson)
// is plainjson.ErrUnsupported; every other error is NewPipeline's.
func ReadPlainPipeline(r *plainjson.Reader) (*Pipeline, error) {
	var w pipelineJSON
	err := r.Object(pipelineKeys, func(int) error {
		w.Modules = []Module{}
		return r.Array(func() error {
			w.Modules = append(w.Modules, Module{})
			return readModule(r, &w.Modules[len(w.Modules)-1])
		})
	})
	if err != nil {
		return nil, err
	}
	return NewPipeline(w.Modules)
}

func readModule(r *plainjson.Reader, m *Module) error {
	return r.Object(moduleKeys, func(i int) (err error) {
		switch i {
		case 0:
			m.ID, err = r.Int()
		case 1:
			m.Name, err = r.String()
		case 2:
			m.Complexity, err = r.Float()
		case 3:
			m.InBytes, err = r.Float()
		default:
			m.OutBytes, err = r.Float()
		}
		return err
	})
}

// WriteNetwork writes the network as indented JSON.
func WriteNetwork(w io.Writer, n *Network) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}

// ReadNetwork parses and validates a network from JSON.
func ReadNetwork(r io.Reader) (*Network, error) {
	var n Network
	if err := json.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("model: reading network: %w", err)
	}
	return &n, nil
}

// WritePipeline writes the pipeline as indented JSON.
func WritePipeline(w io.Writer, p *Pipeline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadPipeline parses and validates a pipeline from JSON.
func ReadPipeline(r io.Reader) (*Pipeline, error) {
	var p Pipeline
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("model: reading pipeline: %w", err)
	}
	return &p, nil
}
