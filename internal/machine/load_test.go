package machine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validDoc is a machine file mirroring the XD1 preset's numbers.
const validDoc = `{
  "name": "test box",
  "nodes": 4,
  "processor": "opteron22",
  "device": "XC2VP50",
  "fpga_dram_bandwidth": 2.8e9,
  "sram_banks": 4,
  "sram_bank_bytes": 4194304,
  "sram_bandwidth": 12.8e9,
  "link_bandwidth": 2e9,
  "links_per_node": 2,
  "latency_seconds": 1.8e-6
}`

func TestParseJSON(t *testing.T) {
	c, err := ParseJSON([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "test box" || c.Nodes != 4 || c.Device.Name != "XC2VP50" {
		t.Fatalf("bad config: %+v", c)
	}
	if c.Fabric.Nodes != 4 || c.Fabric.LinkBandwidth != 2e9 {
		t.Fatalf("bad fabric: %+v", c.Fabric)
	}
	if c.Processor == nil || c.Processor().Name == "" {
		t.Fatal("processor not resolved")
	}
	// The parsed config must build a full system without panicking.
	if _, err := New(c); err != nil {
		t.Fatalf("New on parsed config: %v", err)
	}
}

// Every non-positive parameter must be rejected at load time with an
// error naming the offending JSON field — not deep in a run as a mem or
// fabric panic.
func TestParseJSONRejectsBadFields(t *testing.T) {
	cases := []struct {
		replace string // substring of validDoc to replace
		with    string
		field   string // must appear in the error
	}{
		{`"nodes": 4`, `"nodes": 0`, "nodes"},
		{`"fpga_dram_bandwidth": 2.8e9`, `"fpga_dram_bandwidth": 0`, "fpga_dram_bandwidth"},
		{`"fpga_dram_bandwidth": 2.8e9`, `"fpga_dram_bandwidth": -1`, "fpga_dram_bandwidth"},
		{`"sram_banks": 4`, `"sram_banks": 0`, "sram_banks"},
		{`"sram_bank_bytes": 4194304`, `"sram_bank_bytes": -8`, "sram_bank_bytes"},
		{`"sram_bandwidth": 12.8e9`, `"sram_bandwidth": 0`, "sram_bandwidth"},
		{`"link_bandwidth": 2e9`, `"link_bandwidth": 0`, "link_bandwidth"},
		{`"links_per_node": 2`, `"links_per_node": 0`, "links_per_node"},
		{`"latency_seconds": 1.8e-6`, `"latency_seconds": -1`, "latency_seconds"},
		{`"processor": "opteron22"`, `"processor": "itanium"`, "processor"},
		{`"device": "XC2VP50"`, `"device": "XC9"`, "device"},
	}
	for _, c := range cases {
		doc := strings.Replace(validDoc, c.replace, c.with, 1)
		if doc == validDoc {
			t.Fatalf("case %q did not modify the document", c.with)
		}
		_, err := ParseJSON([]byte(doc))
		if err == nil {
			t.Errorf("%s accepted", c.with)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("error for %s does not name field %q: %v", c.with, c.field, err)
		}
	}
}

func TestParseJSONRejectsUnknownFields(t *testing.T) {
	doc := strings.Replace(validDoc, `"nodes": 4`, `"nodes": 4, "nodez": 9`, 1)
	if _, err := ParseJSON([]byte(doc)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestResolve(t *testing.T) {
	if c, err := Resolve("xd1"); err != nil || c.Nodes != 6 {
		t.Fatalf("preset resolve: %+v, %v", c, err)
	}
	for _, name := range []string{"xd1", "xt3", "src6", "rasc"} {
		if c, err := Resolve(name); err != nil || c.Nodes < 1 {
			t.Fatalf("preset %s: %+v, %v", name, c, err)
		}
	}
	path := filepath.Join(t.TempDir(), "box.json")
	if err := os.WriteFile(path, []byte(validDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Resolve(path)
	if err != nil || c.Name != "test box" {
		t.Fatalf("file resolve: %+v, %v", c, err)
	}
	if _, err := Resolve("cray-3"); err == nil {
		t.Fatal("unknown name resolved")
	}
}
