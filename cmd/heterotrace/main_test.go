package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"reflect"
	"testing"

	"heteroos/internal/fleet"
	"heteroos/internal/obs"
)

// goldenTrace captures the bundled churn script's full event stream —
// the golden JSONL trace the gzip round-trip is checked against.
func goldenTrace(t *testing.T) []byte {
	t.Helper()
	sc, err := fleet.LoadBundled("churn.json")
	if err != nil {
		t.Fatal(err)
	}
	h := obs.New()
	h.SetRunTag("golden-churn")
	var buf bytes.Buffer
	h.Tracer.AddSink(obs.NewJSONLSink(&buf, "golden-churn"))
	if _, err := fleet.Run(context.Background(), sc, fleet.Options{Obs: h}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("churn script emitted no events")
	}
	return buf.Bytes()
}

// TestGzipInputRoundTrip pins that a gzip-compressed trace parses to
// exactly the analysis the uncompressed stream produces, and that
// plain input still passes through the sniffer untouched.
func TestGzipInputRoundTrip(t *testing.T) {
	plain := goldenTrace(t)

	in, err := maybeGunzip(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	want, err := obs.ParseJSONL(in)
	if err != nil {
		t.Fatalf("parse plain trace: %v", err)
	}
	if len(want.Events) == 0 {
		t.Fatal("golden trace parsed to zero events")
	}

	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if zbuf.Len() >= len(plain) {
		t.Fatalf("gzip did not compress the trace (%d -> %d bytes)", len(plain), zbuf.Len())
	}
	in, err = maybeGunzip(bytes.NewReader(zbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseJSONL(in)
	if err != nil {
		t.Fatalf("parse gzipped trace: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("gzipped trace parsed differently: %d events vs %d (run %q vs %q)",
			len(got.Events), len(want.Events), got.Run, want.Run)
	}
}

// TestMaybeGunzipShortInput makes sure sub-2-byte streams fall through
// to the parser instead of erroring in the sniffer.
func TestMaybeGunzipShortInput(t *testing.T) {
	for _, data := range [][]byte{nil, {0x1f}} {
		in, err := maybeGunzip(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("maybeGunzip(%v): %v", data, err)
		}
		if _, err := obs.ParseJSONL(in); err == nil && len(data) > 0 {
			t.Errorf("parsing %v should fail downstream, not in the sniffer", data)
		}
	}
}
