# Figure differential gate: every figure bench — the same 22
# binaries kmubench's `figures` workload runs, all on the default
# shards=1 topology — must regenerate CSVs byte-identical to the
# copies committed under tests/artifacts/ and kmubench/expected/
# figures/. Any drift means a change leaked timing, stat-naming, or
# routing changes into the single-device model the figures are
# required to reproduce exactly (the multi-device topology layer and
# the chip-queue plateaus of fig05, fig08, abl_chipq_sweep and
# abl_attach included). A CSV with no committed copy fails, and so
# does a committed fig*/abl_* CSV that no bench wrote.
#
# Invoked by ctest as:
#   cmake -DBENCHES=<path>,<path>,... -DARTIFACT_DIRS=<dir>,<dir>
#         -DWORK_DIR=<dir> -P sharding_differential_check.cmake

if(NOT BENCHES)
    message(FATAL_ERROR "pass -DBENCHES=<comma-separated bench paths>")
endif()
if(NOT ARTIFACT_DIRS)
    message(FATAL_ERROR
        "pass -DARTIFACT_DIRS=<comma-separated committed CSV dirs>")
endif()
if(NOT WORK_DIR)
    set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()
string(REPLACE "," ";" BENCHES "${BENCHES}")
string(REPLACE "," ";" ARTIFACT_DIRS "${ARTIFACT_DIRS}")

set(dir ${WORK_DIR}/sharding_differential)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# jobs=4 is safe: the sweep_determinism gate proves job count is
# output-neutral.
foreach(bench ${BENCHES})
    get_filename_component(name ${bench} NAME)
    execute_process(
        COMMAND ${bench} jobs=4 bench_json=
        WORKING_DIRECTORY ${dir}
        OUTPUT_FILE ${dir}/${name}.out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} failed (rc=${rc}): ${err}")
    endif()
endforeach()

# Committed copy of each figure CSV, by file name.
set(committed)
foreach(adir ${ARTIFACT_DIRS})
    file(GLOB csvs ${adir}/fig*.csv ${adir}/abl_*.csv)
    foreach(csv ${csvs})
        get_filename_component(name ${csv} NAME)
        set(want_${name} ${csv})
        list(APPEND committed ${name})
    endforeach()
endforeach()

file(GLOB produced ${dir}/*.csv)
if(NOT produced)
    message(FATAL_ERROR "benches produced no CSVs to compare")
endif()

set(compared 0)
foreach(csv ${produced})
    get_filename_component(name ${csv} NAME)
    if(NOT DEFINED want_${name})
        message(FATAL_ERROR
            "no committed copy of '${name}' in ${ARTIFACT_DIRS}; "
            "if this figure is new, regenerate and commit its CSV")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${csv} ${want_${name}}
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
            "'${name}' differs from ${want_${name}}: the shards=1 "
            "model no longer reproduces its committed output "
            "byte-for-byte (fresh copy in ${dir}; if the change is "
            "intentional, regenerate and commit the CSV)")
    endif()
    math(EXPR compared "${compared} + 1")
endforeach()

foreach(name ${committed})
    if(NOT EXISTS ${dir}/${name})
        message(FATAL_ERROR
            "no bench wrote '${name}' (committed as ${want_${name}})")
    endif()
endforeach()

message(STATUS
    "sharding differential check passed: ${compared} figure CSVs "
    "byte-identical to their committed copies")
