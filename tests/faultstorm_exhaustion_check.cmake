# Retry-exhaustion gate: at fault rate 0.02 the composite schedule's
# bursts (MappedReadError at 0.8) make some memory-mapped reads fail
# on every re-issue their retry budget allows, and at rates 0.4 and
# 0.5 lost and corrupted completions do the same to some
# software-queue reads. The campaign must not panic on them: each
# such read is failed back to the workload and counted in
# deadline_failed, so every read the campaign issues is either
# verified or counted as failed, and none verifies wrong data.
#
# Staging-exhaustion gate: on the software-queue engine, lost write
# completions must not leak the 32 posted-write staging slots. Each
# of these campaigns once leaked them all and spun in writeLine; each
# must now finish inside a 20 s timeout, with every read verified or
# counted as failed.
#
# Invoked by ctest as:
#   cmake -DKMU_FAULTSTORM=<path> -DWORK_DIR=<dir>
#         -P faultstorm_exhaustion_check.cmake

if(NOT KMU_FAULTSTORM)
    message(FATAL_ERROR "pass -DKMU_FAULTSTORM=<path to kmu_faultstorm>")
endif()
if(NOT WORK_DIR)
    set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

foreach(cell "ondemand;0.02" "prefetch;0.02" "swqueue;0.4" "swqueue;0.5")
    list(GET cell 0 mech)
    list(GET cell 1 rate)
    set(csv ${WORK_DIR}/faultstorm_exhaustion_${mech}_${rate}.csv)
    execute_process(
        COMMAND ${KMU_FAULTSTORM} seed=1 rates=${rate} mechanisms=${mech}
                ops=1000 fibers=4
        OUTPUT_FILE ${csv}
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "kmu_faultstorm mechanisms=${mech} rates=${rate} failed "
            "(rc=${rc}): an exhausted retry budget panicked, or a read "
            "verified wrong data: ${err}")
    endif()

    # Columns (0-based): 5 ops, 6 verify_errors, 7 deadline_failed,
    # 8 accesses, 25 violations.
    file(STRINGS ${csv} rows)
    list(GET rows 1 row)
    string(REPLACE "," ";" cells "${row}")
    list(GET cells 5 ops)
    list(GET cells 6 verify_errors)
    list(GET cells 7 failed)
    list(GET cells 8 accesses)
    list(GET cells 25 violations)
    if(NOT verify_errors EQUAL 0 OR NOT violations EQUAL 0)
        message(FATAL_ERROR
            "${mech} rates=${rate}: ${verify_errors} verify errors, "
            "${violations} invariant violations (row: ${row})")
    endif()
    if(NOT accesses EQUAL ops)
        message(FATAL_ERROR
            "${mech} rates=${rate}: ${accesses} reads for ${ops} "
            "operations; every operation issues exactly one read "
            "(row: ${row})")
    endif()
    if(NOT failed GREATER 0)
        message(FATAL_ERROR
            "${mech} rates=${rate}: no read ran out of retries, so "
            "this gate no longer exercises retry exhaustion "
            "(row: ${row})")
    endif()
    math(EXPR verified "${ops} - ${failed}")
    message(STATUS
        "${mech} rates=${rate}: ${verified} reads verified, ${failed} "
        "failed back after exhausting their retries, of ${ops}")
endforeach()

foreach(cell "0.07;1000" "0.06;3000" "0.03;6000" "0.01;16000")
    list(GET cell 0 rate)
    list(GET cell 1 ops_per_fiber)
    set(csv ${WORK_DIR}/faultstorm_staging_${rate}.csv)
    execute_process(
        COMMAND ${KMU_FAULTSTORM} seed=1 rates=${rate}
                mechanisms=swqueue ops=${ops_per_fiber} fibers=4
        OUTPUT_FILE ${csv}
        ERROR_VARIABLE err
        RESULT_VARIABLE rc
        TIMEOUT 20)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "kmu_faultstorm mechanisms=swqueue rates=${rate} "
            "ops=${ops_per_fiber} failed (rc=${rc}): a hang here is "
            "writeLine waiting for a leaked staging slot: ${err}")
    endif()
    file(STRINGS ${csv} rows)
    list(GET rows 1 row)
    string(REPLACE "," ";" cells "${row}")
    list(GET cells 5 ops)
    list(GET cells 6 verify_errors)
    list(GET cells 8 accesses)
    list(GET cells 25 violations)
    if(NOT verify_errors EQUAL 0 OR NOT violations EQUAL 0 OR
       NOT accesses EQUAL ops)
        message(FATAL_ERROR
            "swqueue rates=${rate}: ${verify_errors} verify errors, "
            "${violations} invariant violations, ${accesses} reads for "
            "${ops} operations (row: ${row})")
    endif()
    message(STATUS "swqueue rates=${rate}: ${ops} reads finished")
endforeach()
