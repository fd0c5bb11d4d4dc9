package graph

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(VertexID(v)) != b.Label(VertexID(v)) {
			return false
		}
		av, bv := a.Neighbors(VertexID(v)), b.Neighbors(VertexID(v))
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 120, NumLabels: 5, AvgDegree: 6, Seed: 11})
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !graphsEqual(g, g2) {
		t.Error("text round trip changed the graph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := RandomPowerLaw(GenConfig{NumVertices: 150, NumLabels: 7, AvgDegree: 6, Seed: 13})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !graphsEqual(g, g2) {
		t.Error("binary round trip changed the graph")
	}
}

func TestReadTextCommentsAndErrors(t *testing.T) {
	src := "# comment\n% another\nt 2 1\nv 0 3\nv 1 4\ne 0 1\n"
	g, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 || g.Label(1) != 4 {
		t.Errorf("parsed %v", g)
	}
	bad := []string{
		"",                             // empty
		"v 0 1\n",                      // vertex before header
		"t 1 0\nv 3 0\n",               // non-dense id
		"t 1 0\nx 0 0\n",               // unknown record
		"t 2 1\nv 0 1\ne 0 1\n",        // edge to undeclared vertex (id 1 missing)
		"t 1 0\nv 0 zebra\n",           // bad label
		"t 2 1\nv 0 1\nv 1 1\ne 0 q\n", // bad edge endpoint
	}
	for i, s := range bad {
		if _, err := ReadText(strings.NewReader(s)); err == nil {
			t.Errorf("bad input %d accepted", i)
		}
	}
}

func TestReadQueryText(t *testing.T) {
	src := "t 3 3\nv 0 0\nv 1 1\nv 2 1\ne 0 1\ne 1 2\ne 0 2\n"
	q, err := ReadQueryText("tri", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadQueryText: %v", err)
	}
	if q.NumVertices() != 3 || q.NumEdges() != 3 || q.Label(2) != 1 {
		t.Errorf("parsed %v", q)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("FGB1"))); err == nil {
		t.Error("accepted truncated header")
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 60, NumLabels: 3, AvgDegree: 4, Seed: 21})
	dir := t.TempDir()
	for _, format := range []string{"text", "binary"} {
		path := filepath.Join(dir, "g."+format)
		if err := SaveFile(path, format, g); err != nil {
			t.Fatalf("SaveFile(%s): %v", format, err)
		}
		g2, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", format, err)
		}
		if !graphsEqual(g, g2) {
			t.Errorf("%s round trip via file changed the graph", format)
		}
	}
	if err := SaveFile(filepath.Join(dir, "g.x"), "xml", g); err == nil {
		t.Error("accepted unknown format")
	}
}

func TestStats(t *testing.T) {
	g := RandomUniform(GenConfig{NumVertices: 100, NumLabels: 4, AvgDegree: 6, Seed: 5})
	s := ComputeStats("t", g)
	if s.NumVertices != 100 || s.NumEdges != g.NumEdges() {
		t.Errorf("stats mismatch: %+v", s)
	}
	if s.NumLabels > 4 || s.NumLabels < 1 {
		t.Errorf("NumLabels = %d", s.NumLabels)
	}
	hist := DegreeHistogram(g)
	total := 0
	for _, dc := range hist {
		total += dc[1]
	}
	if total != 100 {
		t.Errorf("degree histogram covers %d vertices", total)
	}
	lh := LabelHistogram(g)
	sum := 0
	for _, c := range lh {
		sum += c
	}
	if sum != 100 {
		t.Errorf("label histogram covers %d vertices", sum)
	}
}

// TestReadBinaryHugeHeaderShortBody: a short body whose header declares a
// huge graph must be rejected without allocating what it declares. The
// first case is the 28-byte FGB1 upload (magic plus a header claiming 2^36
// vertices) that used to make ReadBinary allocate 2^36 labels up front.
func TestReadBinaryHugeHeaderShortBody(t *testing.T) {
	body := func(magic string, hdr ...uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString(magic)
		for _, x := range hdr {
			binary.Write(&buf, binary.LittleEndian, x)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"2^36 vertices", body("FGB1", 1<<36, 0, 1)},
		{"2^31 vertices, no arrays", body("FGB1", 1<<31, 0, 1)},
		{"2^40 half-edges", body("FGB2", 4, 1<<40, 1)},
		{"2^40 labels", body("FGB1", 4, 0, 1<<40)},
		{"2^63 vertices", body("FGB1", 1<<63, 0, 1)},
	} {
		if tc.name == "2^36 vertices" && len(tc.data) != 28 {
			t.Fatalf("regression body is %d bytes, want 28", len(tc.data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted a %d-byte body", tc.name, len(tc.data))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte body", tc.name, alloc, len(tc.data))
		}
	}
}
