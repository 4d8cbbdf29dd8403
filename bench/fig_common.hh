/**
 * @file
 * Shared scaffolding for the figure-reproduction benches.
 *
 * Each bench binary regenerates one table/figure of the paper by
 * handing a figure body to kmu::figureMain (sweep/figure_runner.hh):
 * the body runs once to collect every (SystemConfig -> RunResult)
 * point, the points execute on a SweepRunner worker-process pool
 * (jobs=N argv knob or KMU_JOBS) whose workers claim them one at a
 * time, and the body runs again to format the ASCII table and CSV
 * from the results merged by point index — byte-identical to a
 * serial run at any job count. Work that feeds a figure but is no
 * timing-model point (fig10's trace captures, abl_outage's runtime
 * cells) runs on the same pool as byte payloads.
 *
 * Baselines normalize exactly as the paper does (plan-matched
 * single-core DRAM run); FigureRunner computes each distinct
 * baseline shape once and broadcasts it to every cell.
 */

#ifndef KMU_BENCH_FIG_COMMON_HH
#define KMU_BENCH_FIG_COMMON_HH

#include <iostream>
#include <string>

#include "common/table.hh"
#include "core/sim_system.hh"
#include "sweep/figure_runner.hh"

#endif // KMU_BENCH_FIG_COMMON_HH
