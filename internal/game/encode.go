package game

import (
	"encoding/json"
	"fmt"
	"math/big"

	"github.com/defender-game/defender/internal/graph"
)

// The JSON exchange format for mixed configurations. Probabilities are
// encoded as exact rational strings ("1/3"), so profiles round-trip without
// losing the exactness guarantees of the verifier. The graph itself is NOT
// embedded — a profile is interpreted against a graph supplied separately
// (edge indices refer to that graph's edge list) — but the instance
// parameters ν and k are included so a profile is self-describing.
//
//	{
//	  "attackers": 3,
//	  "k": 2,
//	  "vertexPlayers": [ {"probs": {"0": "1/2", "5": "1/2"}}, ... ],
//	  "tuplePlayer":   [ {"edges": [0, 4], "prob": "1/3"}, ... ]
//	}

// profileJSON is the on-wire shape of a mixed configuration.
type profileJSON struct {
	Attackers     int                  `json:"attackers"`
	K             int                  `json:"k"`
	VertexPlayers []vertexStrategyJSON `json:"vertexPlayers"`
	TuplePlayer   []tupleEntryJSON     `json:"tuplePlayer"`
}

type vertexStrategyJSON struct {
	Probs map[string]string `json:"probs"`
}

type tupleEntryJSON struct {
	Edges []int  `json:"edges"`
	Prob  string `json:"prob"`
}

// EncodeProfile serializes a validated mixed configuration of gm to JSON.
func (gm *Game) EncodeProfile(mp MixedProfile) ([]byte, error) {
	if err := gm.Validate(mp); err != nil {
		return nil, err
	}
	out := profileJSON{
		Attackers: gm.attackers,
		K:         gm.k,
	}
	for _, s := range mp.VP {
		entry := vertexStrategyJSON{Probs: make(map[string]string, len(s.support))}
		for i, v := range s.support {
			entry.Probs[fmt.Sprint(v)] = s.probs[i].String()
		}
		out.VertexPlayers = append(out.VertexPlayers, entry)
	}
	for i, t := range mp.TP.tuples {
		out.TuplePlayer = append(out.TuplePlayer, tupleEntryJSON{
			Edges: t.IDs(),
			Prob:  mp.TP.probs[i].String(),
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodeProfile parses a JSON profile against graph g, reconstructing the
// game instance Π_k(G) and the mixed configuration. The profile is fully
// validated (distribution sums, tuple sizes, edge indices) before return.
func DecodeProfile(g *graph.Graph, data []byte) (*Game, MixedProfile, error) {
	var in profileJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, MixedProfile{}, fmt.Errorf("game: decode profile: %w", err)
	}
	gm, err := New(g, in.Attackers, in.K)
	if err != nil {
		return nil, MixedProfile{}, err
	}
	if len(in.VertexPlayers) != in.Attackers {
		return nil, MixedProfile{}, fmt.Errorf("%w: %d vertex strategies for ν=%d",
			ErrInvalidProfile, len(in.VertexPlayers), in.Attackers)
	}
	mp := MixedProfile{}
	for i, entry := range in.VertexPlayers {
		probs := make(map[int]*big.Rat, len(entry.Probs))
		for vs, ps := range entry.Probs {
			var v int
			if _, err := fmt.Sscanf(vs, "%d", &v); err != nil {
				return nil, MixedProfile{}, fmt.Errorf("%w: attacker %d: bad vertex key %q",
					ErrInvalidProfile, i, vs)
			}
			p, ok := new(big.Rat).SetString(ps) // lint:invariant(ratraw): decode boundary; each parsed probability is retained
			if !ok {
				return nil, MixedProfile{}, fmt.Errorf("%w: attacker %d: bad probability %q",
					ErrInvalidProfile, i, ps)
			}
			probs[v] = p
		}
		mp.VP = append(mp.VP, NewVertexStrategy(probs))
	}
	tuples := make([]Tuple, 0, len(in.TuplePlayer))
	probs := make([]*big.Rat, 0, len(in.TuplePlayer))
	for j, entry := range in.TuplePlayer {
		t, err := NewTupleFromIDs(g, entry.Edges)
		if err != nil {
			return nil, MixedProfile{}, fmt.Errorf("tuple %d: %w", j, err)
		}
		p, ok := new(big.Rat).SetString(entry.Prob) // lint:invariant(ratraw): decode boundary; each parsed probability is retained
		if !ok {
			return nil, MixedProfile{}, fmt.Errorf("%w: tuple %d: bad probability %q",
				ErrInvalidProfile, j, entry.Prob)
		}
		tuples = append(tuples, t)
		probs = append(probs, p)
	}
	ts, err := NewTupleStrategy(tuples, probs)
	if err != nil {
		return nil, MixedProfile{}, err
	}
	mp.TP = ts
	if err := gm.Validate(mp); err != nil {
		return nil, MixedProfile{}, err
	}
	return gm, mp, nil
}
