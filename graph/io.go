package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The text format is the one used by most subgraph-matching codebases
// (CFL-Match, DAF, CECI and the in-memory study of Sun & Luo):
//
//	t <numVertices> <numEdges>
//	v <id> <label> [degree]
//	e <u> <v> [fwdEdgeLabel [revEdgeLabel]]
//
// Lines starting with '#' or '%' are comments. The optional degree field is
// ignored on load and emitted on save for compatibility. Edge labels are
// emitted only for edge-labeled graphs; a single label means both
// half-edges carry it, two labels encode a directed relation.

// WriteText serialises g in the text format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "t %d %d\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(bw, "v %d %d %d\n", v, g.Label(VertexID(v)), g.Degree(VertexID(v)))
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, w2 := range g.Neighbors(VertexID(v)) {
			if VertexID(v) >= w2 {
				continue
			}
			if !g.EdgeLabeled() {
				fmt.Fprintf(bw, "e %d %d\n", v, w2)
				continue
			}
			fwd, _ := g.EdgeLabelBetween(VertexID(v), w2)
			rev, _ := g.EdgeLabelBetween(w2, VertexID(v))
			if fwd == rev {
				fmt.Fprintf(bw, "e %d %d %d\n", v, w2, fwd)
			} else {
				fmt.Fprintf(bw, "e %d %d %d %d\n", v, w2, fwd, rev)
			}
		}
	}
	return bw.Flush()
}

// ReadText parses the text format into a Graph.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "t":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph io: line %d: malformed header", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph io: line %d: %v", line, err)
			}
			m, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph io: line %d: %v", line, err)
			}
			b = NewBuilder(n, m)
		case "v":
			if b == nil {
				return nil, fmt.Errorf("graph io: line %d: 'v' before 't' header", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph io: line %d: malformed vertex", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph io: line %d: %v", line, err)
			}
			if id != b.NumVertices() {
				return nil, fmt.Errorf("graph io: line %d: vertex ids must be dense and ascending (got %d, want %d)", line, id, b.NumVertices())
			}
			l, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph io: line %d: %v", line, err)
			}
			b.AddVertex(Label(l))
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph io: line %d: 'e' before 't' header", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph io: line %d: malformed edge", line)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph io: line %d: %v", line, err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph io: line %d: %v", line, err)
			}
			switch len(fields) {
			case 3:
				b.AddEdge(VertexID(u), VertexID(v))
			case 4:
				l, err := strconv.Atoi(fields[3])
				if err != nil {
					return nil, fmt.Errorf("graph io: line %d: %v", line, err)
				}
				b.AddEdgeLabeled(VertexID(u), VertexID(v), EdgeLabel(l))
			default:
				fwd, err := strconv.Atoi(fields[3])
				if err != nil {
					return nil, fmt.Errorf("graph io: line %d: %v", line, err)
				}
				rev, err := strconv.Atoi(fields[4])
				if err != nil {
					return nil, fmt.Errorf("graph io: line %d: %v", line, err)
				}
				b.AddEdgeArcs(VertexID(u), VertexID(v), EdgeLabel(fwd), EdgeLabel(rev))
			}
		default:
			return nil, fmt.Errorf("graph io: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph io: empty input")
	}
	return b.Build()
}

// ReadQueryText parses the same text format into a Query.
func ReadQueryText(name string, r io.Reader) (*Query, error) {
	g, err := ReadText(r)
	if err != nil {
		return nil, err
	}
	labels := make([]Label, g.NumVertices())
	var edges [][2]QueryVertex
	for v := 0; v < g.NumVertices(); v++ {
		labels[v] = g.Label(VertexID(v))
		for _, w := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < w {
				edges = append(edges, [2]QueryVertex{v, int(w)})
			}
		}
	}
	q, err := NewQuery(name, labels, edges)
	if err != nil {
		return nil, err
	}
	if g.EdgeLabeled() {
		for _, e := range edges {
			fwd, _ := g.EdgeLabelBetween(VertexID(e[0]), VertexID(e[1]))
			rev, _ := g.EdgeLabelBetween(VertexID(e[1]), VertexID(e[0]))
			if fwd != WildcardEdgeLabel || rev != WildcardEdgeLabel {
				if err := q.SetEdgeArcLabels(e[0], e[1], fwd, rev); err != nil {
					return nil, err
				}
			}
		}
	}
	return q, nil
}

// LoadFile reads a graph from path, choosing binary format when the file
// starts with the binary magic and text otherwise.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head, err := br.Peek(4)
	if err == nil && (string(head) == binMagic || string(head) == binMagic2) {
		return ReadBinary(br)
	}
	return ReadText(br)
}

// SaveFile writes g to path in the given format ("text" or "binary").
func SaveFile(path, format string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "text":
		return WriteText(f, g)
	case "binary":
		return WriteBinary(f, g)
	default:
		return fmt.Errorf("graph io: unknown format %q", format)
	}
}

const (
	binMagic  = "FGB1" // FAST graph binary, version 1 (vertex labels only)
	binMagic2 = "FGB2" // version 2: adds per-half-edge labels
)

// WriteBinary serialises g in a compact little-endian binary format:
// magic, n, m, labels, offsets, neighbours[, edge labels].
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	magic := binMagic
	if g.EdgeLabeled() {
		magic = binMagic2
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := [3]uint64{uint64(g.NumVertices()), uint64(len(g.neighbors)), uint64(g.numLabels)}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.labels); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.neighbors); err != nil {
		return err
	}
	if g.EdgeLabeled() {
		if err := binary.Write(bw, binary.LittleEndian, g.edgeLabels); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readChunk bounds how far ReadBinary allocates ahead of the bytes that
// back the allocation: arrays are read chunk by chunk, so a header that
// declares more elements than the stream holds fails at end of input
// having allocated about twice the bytes actually read, never the size it
// declared.
const readChunk = 1 << 16

// readSlice reads n little-endian values, growing the result one chunk at
// a time as the data arrives.
func readSlice[T Label | VertexID | int64](r io.Reader, n int) ([]T, error) {
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n {
		k := min(readChunk, n-len(out))
		out = slices.Grow(out, k)[:len(out)+k]
		if err := binary.Read(r, binary.LittleEndian, out[len(out)-k:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadBinary parses the binary format written by WriteBinary. The header's
// counts are checked against the format's ranges (vertex ids are 32-bit,
// labels 16-bit) before anything is allocated, and the arrays are read in
// bounded chunks, so a short body that declares a huge graph is rejected
// without allocating what it declares.
func ReadBinary(r io.Reader) (*Graph, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != binMagic && string(magic) != binMagic2 {
		return nil, fmt.Errorf("graph io: bad magic %q", magic)
	}
	var hdr [3]uint64
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] > math.MaxUint32 || hdr[1] > math.MaxInt/8 || hdr[2] > math.MaxUint16+1 {
		return nil, fmt.Errorf("graph io: corrupt binary graph: header counts (%d vertices, %d half-edges, %d labels) out of range",
			hdr[0], hdr[1], hdr[2])
	}
	n, nn, numLabels := int(hdr[0]), int(hdr[1]), int(hdr[2])
	g := &Graph{numLabels: numLabels}
	var err error
	if g.labels, err = readSlice[Label](r, n); err != nil {
		return nil, err
	}
	if g.offsets, err = readSlice[int64](r, n+1); err != nil {
		return nil, err
	}
	if g.neighbors, err = readSlice[VertexID](r, nn); err != nil {
		return nil, err
	}
	if string(magic) == binMagic2 {
		if g.edgeLabels, err = readSlice[EdgeLabel](r, nn); err != nil {
			return nil, err
		}
	}
	g.byLabel = make([][]VertexID, numLabels)
	for v, l := range g.labels {
		if int(l) >= numLabels {
			return nil, fmt.Errorf("graph io: label %d out of range (numLabels=%d)", l, numLabels)
		}
		g.byLabel[l] = append(g.byLabel[l], VertexID(v))
	}
	for v := 0; v < n; v++ {
		if d := g.Degree(VertexID(v)); d > g.maxDegree {
			g.maxDegree = d
		}
	}
	// Corrupt offsets or out-of-range neighbours must fail before the label
	// index walks the adjacency.
	if g.offsets[0] != 0 || g.offsets[n] != int64(nn) {
		return nil, fmt.Errorf("graph io: corrupt binary graph: offsets endpoints [%d,%d]", g.offsets[0], g.offsets[n])
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return nil, fmt.Errorf("graph io: corrupt binary graph: offsets not monotone at %d", v)
		}
	}
	for _, w := range g.neighbors {
		if int(w) >= n {
			return nil, fmt.Errorf("graph io: corrupt binary graph: neighbour %d out of range (n=%d)", w, n)
		}
	}
	g.buildLabelIndex()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph io: corrupt binary graph: %v", err)
	}
	return g, nil
}
