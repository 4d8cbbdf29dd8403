# Parallel-sweep determinism gate: a figure bench run with jobs=3 or
# jobs=4 must produce byte-identical stdout and CSVs to the jobs=1
# serial run. Workers claim points dynamically, so the two pool sizes
# run the points in different processes and orders; any divergence in
# the by-index merge, the payload framing, the RunResult wire round
# trip, or the two-pass body replay shows up here. fig10_applications
# (application-trace captures) and abl_outage (runtime cells) cover
# the pool's byte-payload users.
#
# Invoked by ctest as:
#   cmake -DBENCHES=<path>,<path>,... -DWORK_DIR=<dir>
#         -P sweep_determinism_check.cmake

if(NOT BENCHES)
    message(FATAL_ERROR "pass -DBENCHES=<comma-separated bench paths>")
endif()
if(NOT WORK_DIR)
    set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()
string(REPLACE "," ";" BENCHES "${BENCHES}")

set(pool_jobs 3 4)
foreach(jobs 1 ${pool_jobs})
    set(dir ${WORK_DIR}/sweep_det_jobs${jobs})
    file(REMOVE_RECURSE ${dir})
    file(MAKE_DIRECTORY ${dir})
    foreach(bench ${BENCHES})
        get_filename_component(name ${bench} NAME)
        execute_process(
            COMMAND ${bench} jobs=${jobs} bench_json=
            WORKING_DIRECTORY ${dir}
            OUTPUT_FILE ${dir}/${name}.out
            ERROR_VARIABLE err
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "${name} jobs=${jobs} failed (rc=${rc}): ${err}")
        endif()
    endforeach()
endforeach()

file(GLOB serial_files
     ${WORK_DIR}/sweep_det_jobs1/*.csv
     ${WORK_DIR}/sweep_det_jobs1/*.out)
if(NOT serial_files)
    message(FATAL_ERROR "serial run produced no CSVs to compare")
endif()

foreach(jobs ${pool_jobs})
    foreach(serial ${serial_files})
        get_filename_component(name ${serial} NAME)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${serial} ${WORK_DIR}/sweep_det_jobs${jobs}/${name}
            RESULT_VARIABLE diff)
        if(NOT diff EQUAL 0)
            message(FATAL_ERROR
                "'${name}' differs between jobs=1 and jobs=${jobs}; "
                "the parallel sweep is not output-neutral (compare "
                "sweep_det_jobs1/ and sweep_det_jobs${jobs}/ in "
                "${WORK_DIR})")
        endif()
    endforeach()
endforeach()
list(LENGTH serial_files compared)
message(STATUS
    "sweep determinism check passed: ${compared} files at jobs=3 and "
    "jobs=4 byte-identical to serial")
