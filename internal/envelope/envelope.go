// Package envelope is the one codec of the repository's self-describing
// documents: a body wrapped as {"v":N,"kind":"...","body":{...}}. Wire
// messages, trace files, fault schedules, durable snapshots and journal
// records all speak it. Decoding rejects unknown schema versions and kinds
// by name before it touches the body, so a document from another
// generation fails loudly instead of being silently misread.
//
// The package imports only the standard library, so every codec package
// (including those internal/wire itself imports) can share it.
package envelope

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Envelope is the wire form of every versioned document.
type Envelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// Format is one document family: its envelope kind and the schema version
// this build speaks.
type Format struct {
	Kind    string
	Version int
	// Name is the document's noun in error texts ("decode <name> body");
	// empty means Kind. It also qualifies the version error ("unsupported
	// <name> schema version") when set.
	Name string
	// Strict rejects unknown fields in the envelope and the body.
	Strict bool
}

// Encode marshals body and wraps it in the format's envelope. Indented
// documents (committed files) use two-space indentation and end in a
// newline; the others (wire and journal payloads) are compact.
func (f Format) Encode(body any, indent bool) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	env := Envelope{V: f.Version, Kind: f.Kind, Body: raw}
	if !indent {
		return json.Marshal(env)
	}
	doc, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// Decode parses an envelope document, checks its version and kind, and
// decodes the body into body.
func (f Format) Decode(data []byte, body any) error {
	var env Envelope
	if err := f.unmarshal(data, &env); err != nil {
		return fmt.Errorf("decode envelope: %w", err)
	}
	name, qualifier := f.Kind, ""
	if f.Name != "" {
		name, qualifier = f.Name, f.Name+" "
	}
	if env.V != f.Version {
		return fmt.Errorf("unsupported %sschema version %d (this build speaks v%d)", qualifier, env.V, f.Version)
	}
	if env.Kind != f.Kind {
		return fmt.Errorf("kind %q, want %q", env.Kind, f.Kind)
	}
	if err := f.unmarshal(env.Body, body); err != nil {
		return fmt.Errorf("decode %s body: %w", name, err)
	}
	return nil
}

// unmarshal is json.Unmarshal, rejecting unknown fields when the format is
// strict.
func (f Format) unmarshal(data []byte, v any) error {
	if !f.Strict {
		return json.Unmarshal(data, v)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the document")
	}
	return nil
}
