package model

import "fmt"

// Module is one stage of a linear computing pipeline, mirroring the paper's
// four module parameters (ModuleID, ModuleComplexity, InputDataInBytes,
// OutputDataInBytes). Module 0 is the data source (no computation, per the
// paper's convention that M1 only transfers data); the last module is the
// end user / sink (computation but no further transfer).
type Module struct {
	ID         int     `json:"id"`
	Name       string  `json:"name,omitempty"`
	Complexity float64 `json:"complexity"` // c_j, ops per input byte
	InBytes    float64 `json:"in_bytes"`   // m_{j-1}
	OutBytes   float64 `json:"out_bytes"`  // m_j
}

// Pipeline is a linear sequence of modules M1..Mn.
type Pipeline struct {
	Modules []Module
}

// NewPipeline validates the module chain: at least two modules (source and
// sink — the paper notes a two-module pipeline reduces to client/server),
// dense IDs, finite non-negative complexities and sizes, a zero-complexity
// source module, and consistent data flow (module j's InBytes equals module
// j-1's OutBytes).
func NewPipeline(modules []Module) (*Pipeline, error) {
	if len(modules) < 2 {
		return nil, fmt.Errorf("model: pipeline needs at least 2 modules (source and sink), got %d", len(modules))
	}
	for j, m := range modules {
		if m.ID != j {
			return nil, fmt.Errorf("model: module %d has ID %d; modules must be densely numbered", j, m.ID)
		}
		if m.Complexity < 0 || m.InBytes < 0 || m.OutBytes < 0 {
			return nil, fmt.Errorf("model: module %d has negative attribute", j)
		}
		switch {
		case !finite(m.Complexity):
			return nil, fmt.Errorf("model: module %d has non-finite complexity %v", j, m.Complexity)
		case !finite(m.InBytes):
			return nil, fmt.Errorf("model: module %d has non-finite input size %v", j, m.InBytes)
		case !finite(m.OutBytes):
			return nil, fmt.Errorf("model: module %d has non-finite output size %v", j, m.OutBytes)
		}
		if j == 0 {
			if m.Complexity != 0 {
				return nil, fmt.Errorf("model: source module must have zero complexity (it only transfers data), got %v", m.Complexity)
			}
			continue
		}
		if m.InBytes != modules[j-1].OutBytes {
			return nil, fmt.Errorf("model: module %d InBytes %v != module %d OutBytes %v",
				j, m.InBytes, j-1, modules[j-1].OutBytes)
		}
		if m.Complexity == 0 {
			return nil, fmt.Errorf("model: non-source module %d must have positive complexity", j)
		}
	}
	return &Pipeline{Modules: modules}, nil
}

// N returns the number of modules.
func (p *Pipeline) N() int { return len(p.Modules) }

// ComputeOps returns the number of operations module j performs
// (c_j · m_{j-1}); zero for the source module.
func (p *Pipeline) ComputeOps(j int) float64 {
	m := p.Modules[j]
	return m.Complexity * m.InBytes
}

// ComputeTime returns T_compute(M_j on node with given power) = c_j·m_{j-1}/p
// in ms. The source module computes in zero time by construction.
func (p *Pipeline) ComputeTime(j int, power float64) float64 {
	return p.ComputeOps(j) / power
}

// OutBytes returns m_j, the output size of module j.
func (p *Pipeline) OutBytes(j int) float64 { return p.Modules[j].OutBytes }

// TotalOps returns the total computation in the pipeline, a convenient
// workload magnitude metric for the harness.
func (p *Pipeline) TotalOps() float64 {
	t := 0.0
	for j := range p.Modules {
		t += p.ComputeOps(j)
	}
	return t
}
