package graph

import (
	"errors"
	"fmt"
	"strings"
)

// graph6 is McKay's compact ASCII format for simple undirected graphs,
// used by nauty/geng and most graph repositories. Support for it lets the
// experiments consume standard instance collections directly.
//
// Layout: N(n) followed by the upper-triangle adjacency bits x(0,1),
// x(0,2), x(1,2), x(0,3), ... packed big-endian into 6-bit groups, each
// encoded as byte value+63. N(n) is one byte n+63 for n <= 62, or '~'
// followed by three 6-bit bytes for n <= 258047 (the 8-byte form for even
// larger graphs is out of scope here).

// ErrBadGraph6 is returned for malformed graph6 input.
var ErrBadGraph6 = errors.New("graph: malformed graph6")

// ParseGraph6 decodes a single graph6 line (surrounding whitespace and an
// optional ">>graph6<<" header are tolerated). Parsing is strict: the
// vertex count must use its canonical header form, the byte count must
// match exactly, and padding bits in the final adjacency byte must be
// zero, so every accepted string satisfies FormatGraph6(ParseGraph6(s)) ==
// s (after trimming) — the round-trip identity fuzzed by FuzzParseGraph6
// and relied on by every graph6-keyed cache. Strictness matters beyond
// hygiene — graph6 strings key defenderd's response cache, and a
// lax parser would let one graph hide under several keys. O(n^2) (the
// full upper triangle is scanned); allocates the graph.
func ParseGraph6(s string) (*Graph, error) {
	s = trimGraph6(s)
	data := []byte(s)
	for _, b := range data {
		if b < 63 || b > 126 {
			return nil, fmt.Errorf("%w: byte %q out of range", ErrBadGraph6, b)
		}
	}
	n, pos, err := graph6Order(s)
	if err != nil {
		return nil, err
	}
	bitsNeeded := n * (n - 1) / 2
	bytesNeeded := (bitsNeeded + 5) / 6
	if len(data)-pos != bytesNeeded {
		return nil, fmt.Errorf("%w: want %d adjacency bytes for n=%d, got %d",
			ErrBadGraph6, bytesNeeded, n, len(data)-pos)
	}
	// The last adjacency byte's bits beyond x(n-2,n-1) are padding and must
	// be zero — trailing garbage bits would otherwise parse as a valid graph
	// and defeat the Format∘Parse = identity round trip.
	if pad := bytesNeeded*6 - bitsNeeded; pad > 0 {
		if last := data[pos+bytesNeeded-1] - 63; last&(1<<uint(pad)-1) != 0 {
			return nil, fmt.Errorf("%w: nonzero padding bits in final adjacency byte", ErrBadGraph6)
		}
	}
	g := New(n)
	bit := 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			byteIdx := pos + bit/6
			shift := 5 - bit%6
			if (data[byteIdx]-63)>>uint(shift)&1 == 1 {
				if err := g.AddEdge(i, j); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadGraph6, err)
				}
			}
			bit++
		}
	}
	return g, nil
}

// Graph6Order returns the vertex count a graph6 line declares, decoding
// only its header under ParseGraph6's rules (whitespace, the optional
// ">>graph6<<" prefix, canonical header form). It neither checks nor
// copies the adjacency bytes, so a caller can refuse an oversized graph
// before paying ParseGraph6's O(n^2) decode. O(1) past the trimming; does
// not allocate.
func Graph6Order(s string) (int, error) {
	n, _, err := graph6Order(trimGraph6(s))
	return n, err
}

// trimGraph6 strips surrounding whitespace and the optional header.
func trimGraph6(s string) string {
	return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), ">>graph6<<"))
}

// graph6Order decodes N(n) from a trimmed graph6 line, returning n and
// the offset of the first adjacency byte.
func graph6Order(s string) (n, pos int, err error) {
	if s == "" {
		return 0, 0, fmt.Errorf("%w: empty input", ErrBadGraph6)
	}
	for i := 0; i < len(s) && i < 4; i++ {
		if s[i] < 63 || s[i] > 126 {
			return 0, 0, fmt.Errorf("%w: byte %q out of range", ErrBadGraph6, s[i])
		}
	}
	switch {
	case s[0] == 126 && len(s) >= 4 && s[1] == 126:
		return 0, 0, fmt.Errorf("%w: 8-byte vertex counts not supported", ErrBadGraph6)
	case s[0] == 126:
		if len(s) < 4 {
			return 0, 0, fmt.Errorf("%w: truncated extended vertex count", ErrBadGraph6)
		}
		n = int(s[1]-63)<<12 | int(s[2]-63)<<6 | int(s[3]-63)
		// The long form is only canonical for 63 <= n <= 258047: smaller
		// counts must use the one-byte header, and larger ones the 8-byte
		// form we reject above. Accepting the non-canonical encodings would
		// break Format∘Parse = identity (the fuzzed round-trip contract)
		// and let one graph hide under several cache keys.
		// (n > 258047 is unreachable here: its second header byte would be
		// '~', which the 8-byte branch above already rejects.)
		if n <= 62 {
			return 0, 0, fmt.Errorf("%w: non-canonical long-form header for n=%d (short form required)", ErrBadGraph6, n)
		}
		return n, 4, nil
	default:
		return int(s[0] - 63), 1, nil
	}
}

// FormatGraph6 encodes g as a graph6 string. Graphs beyond 258047 vertices
// are rejected. The encoding is canonical — one byte sequence per graph —
// so FormatGraph6 inverts ParseGraph6 exactly: Format(Parse(s)) == s for
// every accepted s, and Parse(Format(g)) reproduces g's edge set. O(n^2);
// allocates the output string.
func FormatGraph6(g *Graph) (string, error) {
	n := g.NumVertices()
	if n > 258047 {
		return "", fmt.Errorf("%w: n=%d too large to encode", ErrBadGraph6, n)
	}
	var sb strings.Builder
	if n <= 62 {
		sb.WriteByte(byte(n + 63))
	} else {
		sb.WriteByte(126)
		sb.WriteByte(byte(n>>12&63 + 63))
		sb.WriteByte(byte(n>>6&63 + 63))
		sb.WriteByte(byte(n&63 + 63))
	}
	acc, accBits := 0, 0
	flush := func() {
		sb.WriteByte(byte(acc + 63))
		acc, accBits = 0, 0
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			acc <<= 1
			if g.HasEdge(i, j) {
				acc |= 1
			}
			accBits++
			if accBits == 6 {
				flush()
			}
		}
	}
	if accBits > 0 {
		acc <<= uint(6 - accBits)
		flush()
	}
	return sb.String(), nil
}
