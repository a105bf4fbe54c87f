package wire

// Standalone codecs: every domain type the service surface speaks gets a
// Marshal/Unmarshal pair producing a self-describing, versioned envelope
// {"v":1,"kind":"plan","body":{...}}. The envelope is what gives "a plan
// written to disk or a message queue" a future: decoders reject unknown
// schema versions and mismatched kinds with clear errors instead of
// silently misreading fields.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// Envelope kinds.
const (
	KindModel       = "model"
	KindPool        = "pool"
	KindConstraints = "constraints"
	KindPlan        = "plan"
	KindEstimate    = "estimate"
	KindPlanResult  = "plan-result"
	KindReport      = "report"
	// KindTrace is the envelope kind of external trace files. The codec
	// lives in internal/trace (wire imports trace, so it cannot live here);
	// MarshalTrace/UnmarshalTrace delegate, and a lockstep test pins
	// trace.FileVersion == Version so the two surfaces version together.
	KindTrace = "trace"
	// KindSnapshot and KindJournal are the envelope kinds of the durability
	// subsystem: service-state snapshots and journal records on disk. The
	// codecs live in internal/persist (which imports wire); a lockstep test
	// there pins persist.FormatVersion == Version so a wire schema bump can
	// never leave stale snapshots silently decodable.
	KindSnapshot = "snapshot"
	KindJournal  = "journal"
)

// Envelope wraps every standalone wire document.
type Envelope = envelope.Envelope

func marshal(kind string, body any) ([]byte, error) {
	doc, err := envelope.Format{Kind: kind, Version: Version}.Encode(body, false)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal %s: %w", kind, err)
	}
	return doc, nil
}

func unmarshal(data []byte, kind string, body any) error {
	if err := (envelope.Format{Kind: kind, Version: Version}).Decode(data, body); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// MarshalModel encodes a training-job config as a versioned document.
func MarshalModel(m model.Config) ([]byte, error) { return marshal(KindModel, FromModel(m)) }

// UnmarshalModel decodes a versioned model document.
func UnmarshalModel(data []byte) (model.Config, error) {
	var m Model
	if err := unmarshal(data, KindModel, &m); err != nil {
		return model.Config{}, err
	}
	return m.Config(), nil
}

// MarshalPool encodes an availability pool as a versioned document.
func MarshalPool(p *cluster.Pool) ([]byte, error) { return marshal(KindPool, FromPool(p)) }

// UnmarshalPool decodes a versioned pool document.
func UnmarshalPool(data []byte) (*cluster.Pool, error) {
	var p Pool
	if err := unmarshal(data, KindPool, &p); err != nil {
		return nil, err
	}
	return p.Cluster(), nil
}

// MarshalConstraints encodes plan constraints as a versioned document.
func MarshalConstraints(c core.Constraints) ([]byte, error) {
	return marshal(KindConstraints, FromConstraints(c))
}

// UnmarshalConstraints decodes a versioned constraints document.
func UnmarshalConstraints(data []byte) (core.Constraints, error) {
	var c Constraints
	if err := unmarshal(data, KindConstraints, &c); err != nil {
		return core.Constraints{}, err
	}
	return c.Core(), nil
}

// MarshalPlan encodes a parallelization plan as a versioned document.
func MarshalPlan(p core.Plan) ([]byte, error) { return marshal(KindPlan, FromPlan(p)) }

// UnmarshalPlan decodes a versioned plan document.
func UnmarshalPlan(data []byte) (core.Plan, error) {
	var p Plan
	if err := unmarshal(data, KindPlan, &p); err != nil {
		return core.Plan{}, err
	}
	return p.Core(), nil
}

// MarshalEstimate encodes a plan evaluation as a versioned document.
func MarshalEstimate(e core.Estimate) ([]byte, error) { return marshal(KindEstimate, FromEstimate(e)) }

// UnmarshalEstimate decodes a versioned estimate document.
func UnmarshalEstimate(data []byte) (core.Estimate, error) {
	var e Estimate
	if err := unmarshal(data, KindEstimate, &e); err != nil {
		return core.Estimate{}, err
	}
	return e.Core(), nil
}

// MarshalPlanResult encodes a planner result as a versioned document.
func MarshalPlanResult(r planner.Result) ([]byte, error) {
	return marshal(KindPlanResult, FromResult(r))
}

// UnmarshalPlanResult decodes a versioned planner-result document.
func UnmarshalPlanResult(data []byte) (planner.Result, error) {
	var r PlanResult
	if err := unmarshal(data, KindPlanResult, &r); err != nil {
		return planner.Result{}, err
	}
	return r.Result(), nil
}

// MarshalTrace encodes an external availability trace as a canonical
// versioned document (see trace.Save).
func MarshalTrace(f *trace.File) ([]byte, error) { return trace.Save(f) }

// UnmarshalTrace decodes a versioned trace document, rejecting unknown
// schema versions and kinds by name (see trace.Load).
func UnmarshalTrace(data []byte) (*trace.File, error) { return trace.Load(data) }

// MarshalReport encodes an elastic-run report as a versioned document.
func MarshalReport(r runtime.Report) ([]byte, error) { return marshal(KindReport, FromReport(r)) }

// UnmarshalReport decodes a versioned report document.
func UnmarshalReport(data []byte) (runtime.Report, error) {
	var r Report
	if err := unmarshal(data, KindReport, &r); err != nil {
		return runtime.Report{}, err
	}
	return r.Runtime(), nil
}
