package main

import (
	"os"
	"testing"
	"time"
)

// TestParseTracesFixture charges a fixed -traces listing by hand: each
// trace goes to its innermost frame with a layer, non-layer frames
// (math/big, mallocgc, analysis, sort) fall through to their callers, and
// only a trace with no layer at all is other.
func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"geo":     400 * time.Millisecond,
		"tls":     200 * time.Millisecond,
		"dnswire": 100 * time.Millisecond,
		"gc":      350 * time.Millisecond,
		"sched":   90 * time.Millisecond,
		"vantage": 60 * time.Millisecond,
		"runner":  20 * time.Millisecond,
		"other":   280 * time.Millisecond,
	}
	for layer, d := range want {
		if got := l.byLayer[layer]; got != d {
			t.Errorf("%s: charged %v, want %v", layer, got, d)
		}
	}
	if len(l.byLayer) != len(want) {
		t.Errorf("charged layers %v, want exactly %v", l.byLayer, want)
	}
	if l.total != 1500*time.Millisecond {
		t.Errorf("total %v, want 1.5s", l.total)
	}
	if got := l.share("geo"); got < 0.2666 || got > 0.2667 {
		t.Errorf("geo share %v, want 400/1500", got)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"dnsencryption.info/doe/internal/netsim.(*Conn).Read":                  "netsim",
		"dnsencryption.info/doe/internal/core.(*Study).SetScanRound":           "core",
		"dnsencryption.info/doe/internal/faults.(*Injector).DialFault":         "",
		"crypto/tls.(*Conn).Handshake":                                         "tls",
		"crypto/internal/fips140/nistec.(*P256Point).ScalarMult":               "tls",
		"vendor/golang.org/x/crypto/chacha20poly1305.(*chacha20poly1305).seal": "tls",
		"runtime.gcAssistAlloc":                                                "gc",
		"runtime.gcWriteBarrier2":                                              "gc",
		"runtime.park_m":                                                       "sched",
		"runtime.mallocgc":                                                     "",
		"runtime.memmove":                                                      "",
		"main.(*bench).unit":                                                   "",
		"dnsencryption.info/doe/internal/runner.Reduce[go.shape.*uint8]":       "runner",
		"dnsencryption.info/doe/internal/obs.(*Registry).Counter.func1":        "obs",
		"dnsencryption.info/doe/internal/dnswire.init":                         "dnswire",
		"dnsencryption.info/doe/internal/geo.(*Registry).Lookup.func2":         "geo",
		"net/http.(*Transport).roundTrip":                                      "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseValue(t *testing.T) {
	cases := map[string]time.Duration{
		"10ms": 10 * time.Millisecond, "1.20s": 1200 * time.Millisecond,
		"500us": 500 * time.Microsecond, "250ns": 250,
	}
	for s, want := range cases {
		if got, err := parseValue(s); err != nil || got != want {
			t.Errorf("parseValue(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseValue("10"); err == nil {
		t.Error("parseValue accepted a value with no unit")
	}
}
