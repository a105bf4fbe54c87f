package envelope

import (
	"strings"
	"testing"
)

type doc struct {
	Name string `json:"name"`
}

func TestRoundTripAndRejections(t *testing.T) {
	strict := Format{Kind: "thing", Version: 1, Name: "thing-file", Strict: true}
	compact, err := strict.Encode(doc{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(compact), `{"v":1,"kind":"thing","body":{"name":"a"}}`; got != want {
		t.Fatalf("compact = %s, want %s", got, want)
	}
	indented, err := strict.Encode(doc{"a"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(indented), "}\n") || !strings.Contains(string(indented), "\n  \"kind\": \"thing\"") {
		t.Fatalf("indented document not two-space indented with a trailing newline:\n%s", indented)
	}
	for _, data := range [][]byte{compact, indented} {
		var d doc
		if err := strict.Decode(data, &d); err != nil || d.Name != "a" {
			t.Fatalf("Decode(%s) = %+v, %v", data, d, err)
		}
	}

	lenient := Format{Kind: "thing", Version: 1}
	for _, tc := range []struct {
		name string
		f    Format
		data string
		want string
	}{
		{"not json", strict, "nope", "decode envelope"},
		{"version named", strict, `{"v":2,"kind":"thing","body":{}}`, "unsupported thing-file schema version 2 (this build speaks v1)"},
		{"version plain", lenient, `{"v":2,"kind":"thing","body":{}}`, "unsupported schema version 2"},
		{"kind", strict, `{"v":1,"kind":"other","body":{}}`, `kind "other", want "thing"`},
		{"unknown body field", strict, `{"v":1,"kind":"thing","body":{"name":"a","extra":1}}`, "decode thing-file body"},
		{"unknown envelope field", strict, `{"v":1,"kind":"thing","body":{},"extra":1}`, "decode envelope"},
		{"trailing data", strict, `{"v":1,"kind":"thing","body":{}} {}`, "trailing data"},
		{"lenient trailing data", lenient, `{"v":1,"kind":"thing","body":{}} {}`, "decode envelope"},
		{"lenient bad body", lenient, `{"v":1,"kind":"thing","body":[]}`, "decode thing body"},
	} {
		var d doc
		if err := tc.f.Decode([]byte(tc.data), &d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	var d doc
	if err := lenient.Decode([]byte(`{"v":1,"kind":"thing","body":{"name":"b","extra":1}}`), &d); err != nil || d.Name != "b" {
		t.Errorf("lenient Decode rejected an unknown field: %+v, %v", d, err)
	}
}
