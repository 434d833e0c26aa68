package metrics

import (
	"strings"
	"testing"
)

func TestGainPercent(t *testing.T) {
	cases := []struct {
		base, v, want float64
	}{
		{100, 50, 100}, // twice as fast = 100% gain
		{100, 100, 0},
		{100, 200, -50},
	}
	for _, c := range cases {
		if got := GainPercent(c.base, c.v); got != c.want {
			t.Errorf("GainPercent(%v,%v) = %v, want %v", c.base, c.v, got, c.want)
		}
	}
	if GainPercent(100, 0) != 0 {
		t.Error("zero time should not divide")
	}
}

func TestSlowdown(t *testing.T) {
	if got := Slowdown(10, 25); got != 2.5 {
		t.Errorf("Slowdown = %v", got)
	}
	if Slowdown(0, 5) != 0 {
		t.Error("zero baseline should not divide")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{123.456, "123.46"},
		{1.5, "1.50"},
		{0, "0.00"},
		{0.005, "0.01"},
		{-1.005, "-1.00"}, // %.2f banker-ish rounding is unchanged
		// Sub-centi values keep two significant digits instead of
		// collapsing to 0.00.
		{0.00312, "0.0031"},
		{0.0001234, "0.00012"},
		{-0.00099, "-0.00099"},
		{4.2e-7, "4.2e-07"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestAddRowSmallFloats(t *testing.T) {
	tb := NewTable("S", "name", "ratio")
	tb.AddRow("tiny", 0.00312)
	tb.AddRow("zero", 0.0)
	if tb.rows[0][1] != "0.0031" {
		t.Errorf("small float cell = %q, want %q", tb.rows[0][1], "0.0031")
	}
	if tb.rows[1][1] != "0.00" {
		t.Errorf("zero cell = %q, want %q", tb.rows[1][1], "0.00")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "App", "Gain")
	tb.Caption = "caption line"
	tb.AddRow("GraphChi", 123.456)
	tb.AddRow("LevelDB", "2x")
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	if tb.rows[0][1] != "123.46" {
		t.Errorf("float cell = %q", tb.rows[0][1])
	}
	if tb.rows[1][1] != "2x" {
		t.Errorf("string cell = %q", tb.rows[1][1])
	}
	out := tb.String()
	for _, want := range []string{"Demo", "caption line", "App", "Gain", "GraphChi", "123.46"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Columns align: header and data lines have the value at consistent
	// offsets; sanity-check that every line is terminated.
	if !strings.HasSuffix(out, "\n") {
		t.Error("missing trailing newline")
	}
}

func TestTableWideCells(t *testing.T) {
	tb := NewTable("W", "A", "B")
	tb.AddRow("averyveryverylongvalue", 1)
	out := tb.String()
	if !strings.Contains(out, "averyveryverylongvalue") {
		t.Error("long cell truncated")
	}
}

func TestRenderMarkdown(t *testing.T) {
	tb := NewTable("T", "A", "B")
	tb.Caption = "cap"
	tb.AddRow("x", 1.5)
	var b strings.Builder
	tb.RenderMarkdown(&b)
	out := b.String()
	for _, want := range []string{"**T**", "_cap_", "| A | B |", "| --- | --- |", "| x | 1.50 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("T", "App", "Gain")
	tb.AddRow(`quo"ted`, "a,b")
	var b strings.Builder
	tb.RenderCSV(&b)
	out := b.String()
	if !strings.HasPrefix(out, "App,Gain\n") {
		t.Fatalf("header wrong: %q", out)
	}
	if !strings.Contains(out, `"quo""ted","a,b"`) {
		t.Fatalf("escaping wrong: %q", out)
	}
}

// TestRenderAsMatchesFormatMethods checks that every format CheckFormat
// accepts renders exactly what that format's own method writes, and
// that an unknown format is rejected.
func TestRenderAsMatchesFormatMethods(t *testing.T) {
	tb := NewTable("T", "App", "Gain")
	tb.Caption = "cap"
	tb.AddRow("x,y", 1.5)
	for format, render := range map[string]func(w *strings.Builder){
		"text":     func(w *strings.Builder) { tb.Render(w) },
		"markdown": func(w *strings.Builder) { tb.RenderMarkdown(w) },
		"csv":      func(w *strings.Builder) { tb.RenderCSV(w) },
	} {
		if err := CheckFormat(format); err != nil {
			t.Errorf("CheckFormat(%q) = %v, want nil", format, err)
		}
		var got, want strings.Builder
		tb.RenderAs(&got, format)
		render(&want)
		if got.String() != want.String() {
			t.Errorf("RenderAs(%q):\n%s\nwant:\n%s", format, got.String(), want.String())
		}
	}
	for _, format := range []string{"bogus", "json", "", "CSV"} {
		if err := CheckFormat(format); err == nil {
			t.Errorf("CheckFormat(%q) = nil, want an error", format)
		}
	}
}
