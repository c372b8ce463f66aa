package hardware

import (
	"time"

	"proof/internal/graph"
)

// T / G / M are unit helpers for readable peak declarations.
const (
	kib = 1024
	mib = 1024 * kib
)

func tera(v float64) float64 { return v * 1e12 }
func giga(v float64) float64 { return v * 1e9 }

func init() {
	register(&Platform{
		Key:      "a100",
		Name:     "NVIDIA A100 PCIE-40GB",
		Scenario: "Data center GPU",
		Arch:     "ampere",
		Runtime:  "trtsim",
		PeakFLOPS: map[graph.DataType]float64{
			graph.Float32:  tera(19.5),
			graph.Float16:  tera(312), // Tensor Core dense
			graph.BFloat16: tera(312),
			graph.Int8:     tera(624),
		},
		MemBW:          giga(1555),
		SRAMBytes:      40 * mib, // L2
		KernelOverhead: 5 * time.Microsecond,
		MaxComputeEff:  0.85,
		MaxMemEff:      0.87,
		TensorCore:     &TensorCoreInfo{Arch: "ampere", FLOPPerMMA: 4096},
		DefaultDType:   graph.Float16,
		DefaultBatch:   128,
	})

	register(&Platform{
		Key:      "rtx4090",
		Name:     "NVIDIA RTX 4090",
		Scenario: "Desktop GPU",
		Arch:     "ada",
		Runtime:  "trtsim",
		PeakFLOPS: map[graph.DataType]float64{
			graph.Float32: tera(82.6),
			graph.Float16: tera(330),
			graph.Int8:    tera(660),
		},
		MemBW:          giga(1008),
		SRAMBytes:      72 * mib,
		KernelOverhead: 4 * time.Microsecond,
		MaxComputeEff:  0.83,
		MaxMemEff:      0.88,
		TensorCore:     &TensorCoreInfo{Arch: "ada", FLOPPerMMA: 4096},
		DefaultDType:   graph.Int8,
		DefaultBatch:   128,
	})

	register(&Platform{
		Key:      "xeon-6330",
		Name:     "Intel Xeon Gold 6330",
		Scenario: "Datacenter CPU",
		Arch:     "x86-avx512",
		Runtime:  "ortsim",
		// 28 cores x 2.0 GHz x 2 AVX-512 FMA units x 16 lanes x 2.
		PeakFLOPS: map[graph.DataType]float64{
			graph.Float32: tera(3.58),
			graph.Float16: tera(3.58), // no native fp16 math
			graph.Int8:    tera(14.3), // VNNI
		},
		MemBW:          giga(187.8), // 8ch DDR4-2933
		SRAMBytes:      42 * mib,    // L3
		KernelOverhead: 15 * time.Microsecond,
		MaxComputeEff:  0.80,
		MaxMemEff:      0.75,
		DefaultDType:   graph.Float32,
		DefaultBatch:   16,
	})

	register(&Platform{
		Key:      "xavier-nx",
		Name:     "NVIDIA Jetson Xavier NX",
		Scenario: "Edge GPU",
		Arch:     "volta",
		Runtime:  "trtsim",
		// 48 Volta Tensor Cores @ 1100 MHz.
		PeakFLOPS: map[graph.DataType]float64{
			graph.Float32: tera(0.844),
			graph.Float16: tera(6.8),
			graph.Int8:    tera(13.5),
		},
		MemBW:          giga(59.7),
		SRAMBytes:      512 * kib,
		KernelOverhead: 12 * time.Microsecond,
		MaxComputeEff:  0.82,
		MaxMemEff:      0.80,
		TensorCore:     &TensorCoreInfo{Arch: "volta", FLOPPerMMA: 512},
		DefaultDType:   graph.Float16,
		DefaultBatch:   32,
	})

	register(&Platform{
		Key:      "orin-nx",
		Name:     "NVIDIA Jetson Orin NX 16GB",
		Scenario: "Edge GPU",
		Arch:     "ampere",
		Runtime:  "trtsim",
		// 32 Ampere Tensor Cores x 512 FLOP/clk @ 918 MHz.
		PeakFLOPS: map[graph.DataType]float64{
			graph.Float32: tera(1.88),
			graph.Float16: tera(15.04),
			graph.Int8:    tera(30.1),
		},
		MemBW:          giga(102.4),
		SRAMBytes:      4 * mib,
		KernelOverhead: 8 * time.Microsecond,
		MaxComputeEff:  0.905, // Table 6 #1: 13.62 of 15.04 TFLOP/s
		MaxMemEff:      0.858, // Table 6 #1: 87.9 of 102.4 GB/s
		// Table 6 #3: at GPU 510 MHz the achieved BW drops to 54 GB/s
		// even with EMC at max — the SMs cannot issue transactions
		// fast enough (105.7 MB/s per GPU MHz).
		IssueBWPerMHz: 105.7e6,
		// DRAM efficiency is not flat across EMC clocks: the achieved
		// fraction peaks near EMC 2133 (62.031 of 68.28 GB/s = 0.909
		// of theoretical, vs 0.858 at max) and collapses at 665
		// (15.177 of 21.29 = 0.713) — Table 6 #2/#5. Quadratic fit
		// through those rows at x = emc/3199, normalized to 1 at max.
		EMCEffCurve:  [3]float64{-0.8534, 1.2442, 0.6092},
		TensorCore:   &TensorCoreInfo{Arch: "ampere", FLOPPerMMA: 4096},
		DefaultDType: graph.Float16,
		DefaultBatch: 128,
		Clocks: &ClockDomains{
			GPUMaxMHz:     918,
			GPUOptionsMHz: []int{114, 204, 306, 408, 510, 612, 714, 816, 918},
			EMCMaxMHz:     3199,
			EMCOptionsMHz: []int{204, 665, 2133, 3199},
			CPUMaxMHz:     1984,
			CPUClusters:   2,
		},
		// Calibrated against Table 6: 23.6 W at 918/3199 full load,
		// 11.5 W at 510/665.
		Power: &PowerModel{
			StaticW: 2.0,
			// Per-cluster draw at CPUMaxMHz (1984); Table 7's
			// operating points run the cluster at 729 MHz, where the
			// clock scaling in EstimatePower prices it at 0.700 W.
			CPUClusterW: 1.905,
			GPUMaxW:     16.1,
			GPUExp:      1.15,
			EMCWPerMHz:  0.0015,
			GPUIdleFrac: 0.30,
			EMCIdleFrac: 0.35,
		},
	})

	register(&Platform{
		Key:      "rpi4b",
		Name:     "Raspberry Pi 4B",
		Scenario: "Edge CPU",
		Arch:     "cortex-a72",
		Runtime:  "ortsim",
		// 4x Cortex-A72 @ 1.5 GHz, 128-bit NEON FMA.
		PeakFLOPS: map[graph.DataType]float64{
			graph.Float32: giga(48),
			graph.Float16: giga(48),
			graph.Int8:    giga(96),
		},
		MemBW:          giga(12.8),
		SRAMBytes:      1 * mib,
		KernelOverhead: 60 * time.Microsecond,
		MaxComputeEff:  0.70,
		// §4.3: the BCM2711's internal AXI bus limits real bandwidth
		// to about 5.5 GB/s of the nominal 12.8.
		MaxMemEff:    0.43,
		DefaultDType: graph.Float32,
		DefaultBatch: 4,
	})

	register(&Platform{
		Key:      "npu3720",
		Name:     "NPU 3720 (Intel Core Ultra 185H)",
		Scenario: "Mobile NPU",
		Arch:     "npu3720",
		Runtime:  "ovsim",
		// 2048 fp16 MACs / 4096 int8 MACs per cycle @ 1.4 GHz.
		PeakFLOPS: map[graph.DataType]float64{
			graph.Float32: tera(1.4),
			graph.Float16: tera(5.7),
			graph.Int8:    tera(11.5),
		},
		MemBW:          giga(68), // shared LPDDR5x, NPU slice
		SRAMBytes:      4 * mib,
		KernelOverhead: 30 * time.Microsecond,
		// §4.3: performance significantly deviates from the
		// theoretical peak on this first-generation part.
		MaxComputeEff: 0.35,
		MaxMemEff:     0.50,
		DefaultDType:  graph.Float16,
		DefaultBatch:  8,
		// Only a small portion of models ran successfully (§4.3):
		// the OpenVINO NPU plugin handles CNN/MLP graphs only.
		SupportedTypes: map[string]bool{"CNN": true, "MLP": true},
	})

	// Attach the committed characterization results last: loading
	// validates every calibration.json entry against the registry
	// above, so all platforms must already be registered.
	loadCalibrations()

	// Nothing writes a registered platform from here on: hash each once.
	registeredHashes = make(map[*Platform]string, len(platforms))
	for _, p := range platforms {
		registeredHashes[p] = p.DescriptorHash()
	}
}
