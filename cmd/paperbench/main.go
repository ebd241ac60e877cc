// Command paperbench regenerates every table and figure of the paper's
// evaluation section, printing the same rows/series the paper reports.
//
// Analytic artifacts (Tables 3–5, 11–12, Figs 8–10, the §6.1.2 worked
// example, §7.1.1 ingestion) are evaluated at paper scale from the
// performance model. Measured artifacts (Tables 6–10, Fig 7, Fig 11,
// measured communication volumes) execute the real kernels on scaled-down
// synthetic devices (internal/README.md maps each package to the paper
// section it reproduces).
//
// Usage:
//
//	paperbench -all
//	paperbench -table 3        # one table (3,4,5,6,7,8,9,10,11,12)
//	paperbench -figure 7       # one figure (7,8,9,10,11) or "ingestion"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	table := flag.String("table", "", "regenerate one table: 3,4,5,6,7,8,9,10,11,12 or comm")
	figure := flag.String("figure", "", "regenerate one figure: 7,8,9,10,11 or ingestion")
	all := flag.Bool("all", false, "regenerate everything")
	quick := flag.Bool("quick", false, "smaller measured workloads (faster, noisier)")
	flag.Parse()

	runners := map[string]func(bool){
		"table3":          runTable3,
		"table4":          runTable4,
		"table5":          runTable5,
		"table6":          runTable6,
		"table7":          runTable7,
		"table8":          runTable8,
		"table9":          runTable9,
		"table10":         runTable10,
		"table11":         runTable11,
		"table12":         runTable12,
		"tablecomm":       runCommMeasured,
		"figure7":         runFigure7,
		"figure8":         runFigure8,
		"figure9":         runFigure9,
		"figure10":        runFigure10,
		"figure11":        runFigure11,
		"figureingestion": runIngestion,
	}
	order := []string{
		"table3", "table4", "table5", "table6", "table7", "table8", "table9",
		"table10", "table11", "table12", "tablecomm",
		"figure7", "figure8", "figure9", "figure10", "figure11", "figureingestion",
	}

	switch {
	case *all:
		for _, k := range order {
			runners[k](*quick)
		}
	case *table != "":
		k := "table" + strings.ToLower(*table)
		if f, ok := runners[k]; ok {
			f(*quick)
		} else {
			fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
			os.Exit(2)
		}
	case *figure != "":
		k := "figure" + strings.ToLower(*figure)
		if f, ok := runners[k]; ok {
			f(*quick)
		} else {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
			os.Exit(2)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// header prints a section banner.
func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// row prints aligned columns.
func row(cols ...string) {
	for _, c := range cols {
		fmt.Printf("%-16s", c)
	}
	fmt.Println()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
