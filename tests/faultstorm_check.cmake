# Fault-campaign gate: kmu_faultstorm must (a) survive a composite
# fault schedule with zero verify errors / invariant violations and
# the recovery machinery demonstrably firing (require_recovery=1
# makes the tool enforce both), (b) be deterministic — two runs of
# the same campaign produce byte-identical CSVs — and (c) match the
# committed artifact, so a change that reseeds a fault site's stream
# (renumbering FaultSite, say) fails even though it stays
# deterministic.
#
# Invoked by ctest as:
#   cmake -DKMU_FAULTSTORM=<path> -DARTIFACT_DIR=<dir> -DWORK_DIR=<dir>
#         -P faultstorm_check.cmake

if(NOT KMU_FAULTSTORM)
    message(FATAL_ERROR "pass -DKMU_FAULTSTORM=<path to kmu_faultstorm>")
endif()
if(NOT ARTIFACT_DIR)
    message(FATAL_ERROR "pass -DARTIFACT_DIR=<committed CSV dir>")
endif()
if(NOT WORK_DIR)
    set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(ARGS seed=7 rates=0,0.001,0.01 ops=1500 fibers=4
         require_recovery=1)

foreach(run a b)
    execute_process(
        COMMAND ${KMU_FAULTSTORM} ${ARGS}
        OUTPUT_FILE ${WORK_DIR}/faultstorm_${run}.csv
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "kmu_faultstorm run '${run}' failed (rc=${rc}): a "
            "workload verified wrong data, an invariant tripped, or "
            "the recovery machinery never fired (see "
            "faultstorm_${run}.csv in ${WORK_DIR})")
    endif()
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/faultstorm_a.csv
            ${WORK_DIR}/faultstorm_b.csv
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
        "kmu_faultstorm CSVs differ between identical campaigns; "
        "fault injection or recovery is nondeterministic (compare "
        "faultstorm_a.csv and faultstorm_b.csv in ${WORK_DIR})")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/faultstorm_a.csv
            ${ARTIFACT_DIR}/faultstorm_campaign.csv
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
        "faultstorm_a.csv differs from the committed artifact "
        "faultstorm_campaign.csv: the seeded fault schedule or the "
        "recovery path changed (fresh copy in ${WORK_DIR}; if the "
        "change is intentional, regenerate and commit the CSV)")
endif()
message(STATUS "faultstorm check passed: recovery fired, CSVs "
               "byte-identical and matching the committed artifact")
