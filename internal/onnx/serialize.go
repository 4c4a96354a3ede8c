package onnx

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Binary serialization: a compact, deterministic, weight-free encoding used
// for database storage. Matches the paper's design point that "each model
// record uses the storage of hundreds of bytes" because only structure and
// attributes are kept.
//
// Layout (all ints are uvarint unless noted):
//
//	magic "NLQP" | version u8
//	name | family                          (strings are len-prefixed)
//	numInputs | {name, rank, dims...}
//	numNodes  | {name, op, numInputs, inputs..., numAttrs,
//	             {key, kind u8, payload}...}   (attrs in sorted key order)
//	numOutputs | outputs...

const (
	binaryMagic   = "NLQP"
	binaryVersion = 1
)

// EncodeBinary serializes the graph to the compact binary format.
func (g *Graph) EncodeBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.WriteByte(binaryVersion)
	writeString(&buf, g.Name)
	writeString(&buf, g.Family)
	writeUvarint(&buf, uint64(len(g.Inputs)))
	for _, vi := range g.Inputs {
		writeString(&buf, vi.Name)
		writeUvarint(&buf, uint64(len(vi.Shape)))
		for _, d := range vi.Shape {
			writeUvarint(&buf, uint64(d))
		}
	}
	writeUvarint(&buf, uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		writeString(&buf, n.Name)
		writeString(&buf, string(n.Op))
		writeUvarint(&buf, uint64(len(n.Inputs)))
		for _, in := range n.Inputs {
			writeString(&buf, in)
		}
		keys := n.Attrs.SortedKeys()
		writeUvarint(&buf, uint64(len(keys)))
		for _, k := range keys {
			a := n.Attrs[k]
			writeString(&buf, k)
			buf.WriteByte(byte(a.Kind))
			switch a.Kind {
			case AttrInt:
				writeVarint(&buf, a.I)
			case AttrInts:
				writeUvarint(&buf, uint64(len(a.Ints)))
				for _, v := range a.Ints {
					writeVarint(&buf, v)
				}
			case AttrFloat:
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.F))
				buf.Write(b[:])
			case AttrString:
				writeString(&buf, a.S)
			default:
				return nil, fmt.Errorf("onnx: node %q attr %q has invalid kind %d", n.Name, k, a.Kind)
			}
		}
	}
	writeUvarint(&buf, uint64(len(g.Outputs)))
	for _, out := range g.Outputs {
		writeString(&buf, out)
	}
	return buf.Bytes(), nil
}

// DecodeBinary parses a graph serialized by EncodeBinary.
func DecodeBinary(data []byte) (*Graph, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != binaryMagic {
		return nil, fmt.Errorf("onnx: bad magic")
	}
	ver, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("onnx: unsupported version %d", ver)
	}
	g := &Graph{}
	if g.Name, err = readString(r); err != nil {
		return nil, err
	}
	if g.Family, err = readString(r); err != nil {
		return nil, err
	}
	nin, err := readCount(r)
	if err != nil {
		return nil, err
	}
	g.Inputs = make([]ValueInfo, nin)
	for i := range g.Inputs {
		if g.Inputs[i].Name, err = readString(r); err != nil {
			return nil, err
		}
		rank, err := readCount(r)
		if err != nil {
			return nil, err
		}
		g.Inputs[i].Shape = make(Shape, rank)
		for d := range g.Inputs[i].Shape {
			v, err := readUvarint(r)
			if err != nil {
				return nil, err
			}
			g.Inputs[i].Shape[d] = int(v)
		}
	}
	nnodes, err := readCount(r)
	if err != nil {
		return nil, err
	}
	g.Nodes = make([]*Node, nnodes)
	for i := range g.Nodes {
		n := &Node{}
		if n.Name, err = readString(r); err != nil {
			return nil, err
		}
		op, err := readString(r)
		if err != nil {
			return nil, err
		}
		n.Op = OpType(op)
		numIn, err := readCount(r)
		if err != nil {
			return nil, err
		}
		n.Inputs = make([]string, numIn)
		for j := range n.Inputs {
			if n.Inputs[j], err = readString(r); err != nil {
				return nil, err
			}
		}
		numAttrs, err := readCount(r)
		if err != nil {
			return nil, err
		}
		if numAttrs > 0 {
			n.Attrs = make(Attrs, numAttrs)
		}
		for j := 0; j < numAttrs; j++ {
			key, err := readString(r)
			if err != nil {
				return nil, err
			}
			kindB, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			a := Attr{Kind: AttrKind(kindB)}
			switch a.Kind {
			case AttrInt:
				if a.I, err = binary.ReadVarint(r); err != nil {
					return nil, err
				}
			case AttrInts:
				cnt, err := readCount(r)
				if err != nil {
					return nil, err
				}
				a.Ints = make([]int64, cnt)
				for k := range a.Ints {
					if a.Ints[k], err = binary.ReadVarint(r); err != nil {
						return nil, err
					}
				}
			case AttrFloat:
				b := make([]byte, 8)
				if _, err := io.ReadFull(r, b); err != nil {
					return nil, err
				}
				a.F = math.Float64frombits(binary.LittleEndian.Uint64(b))
			case AttrString:
				if a.S, err = readString(r); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("onnx: attr %q has invalid kind %d", key, kindB)
			}
			n.Attrs[key] = a
		}
		g.Nodes[i] = n
	}
	nout, err := readCount(r)
	if err != nil {
		return nil, err
	}
	g.Outputs = make([]string, nout)
	for i := range g.Outputs {
		if g.Outputs[i], err = readString(r); err != nil {
			return nil, err
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("onnx: %d trailing bytes", r.Len())
	}
	return g, nil
}

// MarshalJSON-friendly wire forms for human-readable export.

type jsonAttr struct {
	Kind string  `json:"kind"`
	I    int64   `json:"i,omitempty"`
	Ints []int64 `json:"ints,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
}

type jsonNode struct {
	Name   string              `json:"name"`
	Op     string              `json:"op"`
	Inputs []string            `json:"inputs"`
	Attrs  map[string]jsonAttr `json:"attrs,omitempty"`
}

type jsonGraph struct {
	Name    string      `json:"name"`
	Family  string      `json:"family,omitempty"`
	Inputs  []ValueInfo `json:"inputs"`
	Nodes   []jsonNode  `json:"nodes"`
	Outputs []string    `json:"outputs"`
}

// EncodeJSON serializes the graph to indented JSON (for debugging and the
// HTTP API).
func (g *Graph) EncodeJSON() ([]byte, error) {
	jg := jsonGraph{
		Name: g.Name, Family: g.Family, Inputs: g.Inputs, Outputs: g.Outputs,
	}
	for _, n := range g.Nodes {
		jn := jsonNode{Name: n.Name, Op: string(n.Op), Inputs: n.Inputs}
		if len(n.Attrs) > 0 {
			jn.Attrs = make(map[string]jsonAttr, len(n.Attrs))
			for k, a := range n.Attrs {
				jn.Attrs[k] = jsonAttr{Kind: a.Kind.String(), I: a.I, Ints: a.Ints, F: a.F, S: a.S}
			}
		}
		jg.Nodes = append(jg.Nodes, jn)
	}
	return json.MarshalIndent(jg, "", "  ")
}

// DecodeJSON parses a graph serialized by EncodeJSON.
func DecodeJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	g := &Graph{Name: jg.Name, Family: jg.Family, Inputs: jg.Inputs, Outputs: jg.Outputs}
	for _, jn := range jg.Nodes {
		n := &Node{Name: jn.Name, Op: OpType(jn.Op), Inputs: jn.Inputs}
		if len(jn.Attrs) > 0 {
			n.Attrs = make(Attrs, len(jn.Attrs))
			for k, ja := range jn.Attrs {
				var kind AttrKind
				switch ja.Kind {
				case "int":
					kind = AttrInt
				case "ints":
					kind = AttrInts
				case "float":
					kind = AttrFloat
				case "string":
					kind = AttrString
				default:
					return nil, fmt.Errorf("onnx: node %q attr %q has unknown kind %q", jn.Name, k, ja.Kind)
				}
				n.Attrs[k] = Attr{Kind: kind, I: ja.I, Ints: ja.Ints, F: ja.F, S: ja.S}
			}
		}
		g.Nodes = append(g.Nodes, n)
	}
	return g, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	buf.Write(b[:n])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], v)
	buf.Write(b[:n])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func readUvarint(r *bytes.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

// readCount reads an element count. Every element takes at least one more
// byte, so a count above the bytes remaining is corrupt; rejecting it here
// keeps each allocation the count sizes proportional to the input, whatever
// a hostile encoding claims.
func readCount(r *bytes.Reader) (int, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Len()) {
		return 0, fmt.Errorf("onnx: count %d exceeds remaining %d bytes", n, r.Len())
	}
	return int(n), nil
}

func readString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("onnx: string length %d exceeds remaining %d bytes", n, r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
