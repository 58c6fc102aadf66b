package autopilot

import (
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"kairos/internal/server"
)

func TestParseReadyLine(t *testing.T) {
	t.Parallel()
	cases := []struct {
		line string
		addr string
		ok   bool
	}{
		{"kairosd: g4dn.xlarge serving NCF on 127.0.0.1:41837 (timescale 1.00)", "127.0.0.1:41837", true},
		{"kairosd: r5n.large serving MT-WND on 127.0.0.1:7001 (timescale 0.1)", "127.0.0.1:7001", true},
		{"kairosd: shutting down", "", false},
		{"something else entirely", "", false},
		{"", "", false},
	}
	for _, tc := range cases {
		addr, ok := parseReadyLine(tc.line)
		if ok != tc.ok || addr != tc.addr {
			t.Errorf("parseReadyLine(%q) = %q, %v; want %q, %v", tc.line, addr, ok, tc.addr, tc.ok)
		}
	}
}

func TestExecFleetValidation(t *testing.T) {
	t.Parallel()
	f := NewExecFleet("/does/not/matter", 1, "NCF")
	if _, err := f.Launch("MT-WND", "r5n.large"); err == nil || !strings.Contains(err.Error(), "does not serve") {
		t.Fatalf("unlisted model must be rejected before spawning: %v", err)
	}
	if err := f.Stop("127.0.0.1:1"); err == nil {
		t.Fatal("stopping an unknown address must error")
	}
	if got := f.Addrs(); len(got) != 0 || f.Size() != 0 {
		t.Fatalf("empty fleet reports %v", got)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("closing an empty fleet: %v", err)
	}
}

// TestExecFleetBadBinary: a binary that exits without a ready line is a
// clean Launch error carrying its stderr, not a hang.
func TestExecFleetBadBinary(t *testing.T) {
	t.Parallel()
	f := NewExecFleet("/bin/false", 1)
	if _, err := f.Launch("NCF", "r5n.large"); err == nil || !strings.Contains(err.Error(), "ready line") {
		t.Fatalf("dead binary must fail the launch: %v", err)
	}
	if f.Size() != 0 {
		t.Fatal("failed launch must not be tracked")
	}
}

// TestProbeHelloAppliesTheDialRule: the launch health check must refuse
// what the controller's dial would refuse — a banner of another wire
// version (naming both), another model, another type — and pass the one
// banner that is right.
func TestProbeHelloAppliesTheDialRule(t *testing.T) {
	t.Parallel()
	const model, typeName = "NCF", "r5n.large"
	for _, tc := range []struct {
		name   string
		banner server.Hello
		want   []string // substrings of the error; nil: must pass
	}{
		{"current", server.Hello{TypeName: typeName, Model: model, Proto: server.ProtoSession}, nil},
		{"stale kairosd", server.Hello{TypeName: typeName, Model: model, Proto: server.ProtoSession - 1},
			[]string{"wire version " + strconv.Itoa(server.ProtoSession-1), "speaks " + strconv.Itoa(server.ProtoSession)}},
		{"no version", server.Hello{TypeName: typeName, Model: model}, []string{"wire version 0"}},
		{"wrong model", server.Hello{TypeName: typeName, Model: "RM2", Proto: server.ProtoSession}, []string{"RM2", model}},
		{"wrong type", server.Hello{TypeName: "g4dn.xlarge", Model: model, Proto: server.ProtoSession}, []string{"g4dn.xlarge", typeName}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				if conn, err := ln.Accept(); err == nil {
					server.WriteFrame(conn, tc.banner)
					conn.Close()
				}
			}()
			err = probeHello(ln.Addr().String(), model, typeName, 5*time.Second)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("a correct banner failed the probe: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("probe passed a banner the controller's dial refuses")
			}
			for _, part := range tc.want {
				if !strings.Contains(err.Error(), part) {
					t.Fatalf("error %q does not say %q", err, part)
				}
			}
		})
	}
}
