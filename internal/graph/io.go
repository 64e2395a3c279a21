package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk format is a line-oriented text format:
//
//	fairtcim-graph v1
//	n <numNodes>
//	g <node> <group>        # omitted for group 0
//	e <from> <to> <prob>    # one directed edge per line
//
// Lines starting with '#' and blank lines are ignored. Node ids must lie in
// [0, numNodes).

const formatHeader = "fairtcim-graph v1"

// Write serialises g in the fairtcim edge-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, formatHeader); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if grp := g.Group(NodeID(v)); grp != 0 {
			if _, err := fmt.Fprintf(bw, "g %d %d\n", v, grp); err != nil {
				return err
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		targets, probs := g.OutEdges(NodeID(v))
		for i, to := range targets {
			if _, err := fmt.Fprintf(bw, "e %d %d %g\n", v, to, probs[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses a graph in the fairtcim edge-list format.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, true
		}
		return "", false
	}

	line, ok := next()
	if !ok || line != formatHeader {
		return nil, fmt.Errorf("graph: line %d: missing %q header", lineNo, formatHeader)
	}
	line, ok = next()
	if !ok {
		return nil, fmt.Errorf("graph: unexpected EOF before node count")
	}
	var n int
	if _, err := fmt.Sscanf(line, "n %d", &n); err != nil {
		return nil, fmt.Errorf("graph: line %d: bad node count %q: %v", lineNo, line, err)
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: line %d: negative node count", lineNo)
	}
	b := NewBuilder(n)
	for {
		line, ok = next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "g":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'g node group'", lineNo)
			}
			v, err1 := strconv.Atoi(fields[1])
			grp, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || v < 0 || v >= n || grp < 0 {
				return nil, fmt.Errorf("graph: line %d: bad group line %q", lineNo, line)
			}
			b.SetGroup(NodeID(v), grp)
		case "e":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: want 'e from to prob'", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			p, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge line %q", lineNo, line)
			}
			if u < 0 || u >= n || v < 0 || v >= n || !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("graph: line %d: edge out of range %q", lineNo, line)
			}
			b.AddEdge(NodeID(u), NodeID(v), p)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}
