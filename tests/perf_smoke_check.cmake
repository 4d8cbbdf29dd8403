# Perf-smoke gate: the event-kernel microbench must run, report its
# events/sec measurement into the BENCH_sweep.json trajectory, and
# hold the kernel speedup vs the committed legacy-replica baseline.
#
# The gated quantity is the new-kernel / legacy-kernel events-per-sec
# RATIO, not an absolute rate: both kernels run in the same process
# on the same machine, so the ratio is stable across hosts while an
# absolute floor would not be. A >30% drop against the committed
# baseline ratio (tests/artifacts/event_kernel_baseline.json) fails.
#
# Invoked by ctest as:
#   cmake -DUBENCH=<path to ubench_event_kernel>
#         -DBASELINE=<path to event_kernel_baseline.json>
#         -DWORK_DIR=<dir> -P perf_smoke_check.cmake

if(NOT UBENCH OR NOT BASELINE)
    message(FATAL_ERROR "pass -DUBENCH= and -DBASELINE= paths")
endif()
if(NOT WORK_DIR)
    set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORK_DIR}/perf_smoke)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})
set(bench_json ${dir}/BENCH_sweep.json)

execute_process(
    COMMAND ${UBENCH} events=500000 bench_json=${bench_json}
    WORKING_DIRECTORY ${dir}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "ubench_event_kernel failed (rc=${rc}): ${out}${err}")
endif()

# The events/sec self-measurement must land in the bench trajectory.
if(NOT EXISTS ${bench_json})
    message(FATAL_ERROR "microbench wrote no ${bench_json}")
endif()
file(READ ${bench_json} record)
if(NOT record MATCHES "\"events_per_s\": *([0-9.e+]+)")
    message(FATAL_ERROR
        "no events_per_s field in ${bench_json}: ${record}")
endif()
set(events_per_s ${CMAKE_MATCH_1})
if(NOT record MATCHES "\"ratio_vs_legacy\": *([0-9.e+]+)")
    message(FATAL_ERROR
        "no ratio_vs_legacy field in ${bench_json}: ${record}")
endif()
set(ratio ${CMAKE_MATCH_1})

file(READ ${BASELINE} baseline)
if(NOT baseline MATCHES "\"ratio_vs_legacy\": *([0-9.e+]+)")
    message(FATAL_ERROR
        "no ratio_vs_legacy in baseline ${BASELINE}: ${baseline}")
endif()
set(base_ratio ${CMAKE_MATCH_1})

# math(EXPR) is integer-only: scale both ratios to x100 fixed point.
function(ratio_x100 value out_var)
    if(value MATCHES "^([0-9]+)\\.([0-9])([0-9]?)")
        set(whole ${CMAKE_MATCH_1})
        set(tenth ${CMAKE_MATCH_2})
        set(hundredth "${CMAKE_MATCH_3}")
        if("${hundredth}" STREQUAL "")
            set(hundredth 0)
        endif()
        math(EXPR scaled
             "${whole} * 100 + ${tenth} * 10 + ${hundredth}")
    elseif(value MATCHES "^([0-9]+)$")
        math(EXPR scaled "${CMAKE_MATCH_1} * 100")
    else()
        message(FATAL_ERROR "unparseable ratio '${value}'")
    endif()
    set(${out_var} ${scaled} PARENT_SCOPE)
endfunction()

ratio_x100(${ratio} measured_x100)
ratio_x100(${base_ratio} baseline_x100)

# Fail on a >30% regression vs the committed baseline ratio.
math(EXPR floor_x100 "(${baseline_x100} * 70) / 100")

if(measured_x100 LESS floor_x100)
    message(FATAL_ERROR
        "event-kernel perf regression: ratio_vs_legacy=${ratio} is "
        ">30% below the committed baseline ${base_ratio} "
        "(floor ${floor_x100}/100). If the slowdown is intended, "
        "refresh tests/artifacts/event_kernel_baseline.json.")
endif()

message(STATUS
    "perf smoke passed: ${events_per_s} events/s, "
    "${ratio}x vs legacy (baseline ${base_ratio}x)")
