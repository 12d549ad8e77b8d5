package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// table2 is the Table-2 projection of one flow run: the fields every
// path through the flow (Engine.Run, the stage methods, the service)
// must agree on for the same design and configuration.
type table2 struct {
	Candidates  int    `json:"candidates"`
	Clusters    int    `json:"clusters"`
	ValidEFPGAs int    `json:"valid_efpgas"`
	Solutions   int    `json:"solutions"`
	Redacted    int    `json:"redacted_instances"`
	Fabrics     string `json:"fabrics,omitempty"`
	Error       string `json:"error,omitempty"`
}

// attackCounts are the deterministic outcome of one seed-1 attack.
type attackCounts struct {
	DIPs      int `json:"dips"`
	Conflicts int `json:"conflicts"`
}

// implCounts are the deterministic outcome of one fabric implementation.
type implCounts struct {
	RouteIterations int     `json:"route_iterations"`
	PlaceCost       float64 `json:"place_cost"`
	ConfigBits      int     `json:"config_bits"`
}

// expectations are the committed BENCH.json results the benchmark's
// outputs must reproduce: both drive the same engine configuration.
type expectations struct {
	designs   map[string]table2       // "design/cfgN"
	attacks   map[string]attackCounts // corpus target, or "design/fabric#i"
	implement map[string]implCounts   // "design/cfg1/fabric#i"
}

func loadExpectations(path string) (*expectations, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading expected results: %w", err)
	}
	var doc struct {
		Designs []struct {
			Design string `json:"design"`
			Cfg    string `json:"cfg"`
			table2
		} `json:"designs"`
		Implement []struct {
			Design string `json:"design"`
			Cfg    string `json:"cfg"`
			Fabric string `json:"fabric"`
			implCounts
		} `json:"implement"`
		Attacks []struct {
			Target string `json:"target"`
			attackCounts
		} `json:"attacks"`
		FabricAttacks []struct {
			Design string `json:"design"`
			Fabric string `json:"fabric"`
			attackCounts
		} `json:"fabric_attacks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	e := &expectations{
		designs:   make(map[string]table2),
		attacks:   make(map[string]attackCounts),
		implement: make(map[string]implCounts),
	}
	for _, d := range doc.Designs {
		e.designs[d.Design+"/"+d.Cfg] = d.table2
	}
	// Rows for equal fabric names are told apart by their order: "#n".
	seen := make(map[string]int)
	for _, r := range doc.Implement {
		k := r.Design + "/" + r.Cfg + "/" + r.Fabric
		e.implement[fmt.Sprintf("%s#%d", k, seen[k])] = r.implCounts
		seen[k]++
	}
	for _, a := range doc.Attacks {
		e.attacks[a.Target] = a.attackCounts
	}
	for _, a := range doc.FabricAttacks {
		k := a.Design + "/" + a.Fabric
		e.attacks[fmt.Sprintf("%s#%d", k, seen[k])] = a.attackCounts
		seen[k]++
	}
	if len(e.designs) == 0 || len(e.attacks) == 0 {
		return nil, fmt.Errorf("%s holds no design or attack rows", path)
	}
	return e, nil
}

// checkTable2 compares a run's Table-2 fields with the expected row.
func (e *expectations) checkTable2(key string, got table2) error {
	want, ok := e.designs[key]
	if !ok {
		return fmt.Errorf("no expected Table-2 row for %s", key)
	}
	if got != want {
		return fmt.Errorf("Table-2 fields %+v, want %+v", got, want)
	}
	return nil
}
