package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
)

// wireResult is the part of a solve result the checks read; the decoder
// skips every other field.
type wireResult struct {
	Graph6    string `json:"graph6"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	K         int    `json:"k"`
	Attackers int    `json:"attackers"`
	MixedNE   *struct {
		Family         string `json:"family"`
		DefenderGain   string `json:"defender_gain"`
		HitProbability string `json:"hit_probability"`
	} `json:"mixed_ne"`
	GameValue       string `json:"game_value"`
	GameValueSource string `json:"game_value_source"`
}

// checkResult decodes one result object and checks it against req:
//
//   - graph6, n, m, k and attackers echo the request;
//   - a mixed equilibrium is present and game_value is a p/q in (0, 1];
//   - hit_probability, when present, equals game_value — the LP and the
//     Claim 4.3 closed form must agree;
//   - defender_gain equals attackers × game_value, as in every equilibrium
//     of the constant-sum game.
//
// It returns the equilibrium family.
func checkResult(raw []byte, req *request) (string, error) {
	var res wireResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return "", fmt.Errorf("undecodable result: %w", err)
	}
	if res.Graph6 != req.g6 || res.K != req.k || res.Attackers != req.nu ||
		res.N != req.n || res.M != req.m {
		return "", fmt.Errorf("echo mismatch: got graph6=%q n=%d m=%d k=%d attackers=%d", res.Graph6, res.N, res.M, res.K, res.Attackers)
	}
	if res.MixedNE == nil {
		return "", errors.New("no mixed equilibrium")
	}
	value, ok := new(big.Rat).SetString(res.GameValue)
	if !ok || value.Sign() <= 0 || value.Cmp(big.NewRat(1, 1)) > 0 {
		return "", fmt.Errorf("game_value %q is not a p/q in (0,1]", res.GameValue)
	}
	if h := res.MixedNE.HitProbability; h != "" {
		hit, ok := new(big.Rat).SetString(h)
		if !ok || hit.Cmp(value) != 0 {
			return "", fmt.Errorf("hit_probability %q differs from game_value %q", h, res.GameValue)
		}
	}
	gain, ok := new(big.Rat).SetString(res.MixedNE.DefenderGain)
	want := new(big.Rat).Mul(value, big.NewRat(int64(req.nu), 1))
	if !ok || gain.Cmp(want) != 0 {
		return "", fmt.Errorf("defender_gain %q is not attackers x game_value = %s", res.MixedNE.DefenderGain, want.RatString())
	}
	return res.MixedNE.Family, nil
}

// The 200 body of POST /v1/solve is an indented SolveResponse whose first
// member is the result and whose second is "cached".
var (
	resultPrefix = []byte("{\n  \"result\": ")
	cachedMarker = []byte(",\n  \"cached\": ")
)

// solveResult slices the raw result object out of a 200 solve body
// without decoding it, so a hit can be compared byte for byte cheaply.
func solveResult(body []byte) ([]byte, error) {
	end := bytes.LastIndex(body, cachedMarker)
	if !bytes.HasPrefix(body, resultPrefix) || end < len(resultPrefix) {
		return nil, errors.New("200 body is not a solve response")
	}
	return body[len(resultPrefix):end], nil
}

// checkAnswer checks the result of one answered request. A serve-hot
// request must repeat its primed result byte for byte (the primed result
// itself went through checkResult); every other request is checked in
// full. It returns the equilibrium family.
func checkAnswer(raw []byte, req *request) (string, error) {
	if req.hot != nil && req.hot.result != nil {
		if !bytes.Equal(raw, req.hot.result) {
			return "", errors.New("cache hit differs from the primed result")
		}
		return req.hot.family, nil
	}
	return checkResult(raw, req)
}
