# Real-runtime contention gate: the threaded SW-queue suites (queue
# pair, emulated device thread, SW-queue engine, recovery, replay
# methodology) must pass every one of 20 repetitions while one
# busy loop per logical CPU competes with the host and device
# threads. A descheduled device thread is the condition that used to
# make the watchdog re-issue reads and, with long starvation, panic;
# any test failure or panic fails the gate (a runtime without the
# starvation-aware watchdog fails 1-3 of every 20 repetitions). The SpscRing
# stress is left out: it is not a runtime suite.
#
# The busy loops are kmu_busy_pipe processes chained after the test
# binary in one execute_process pipeline: they load the CPUs exactly
# as long as the tests run and pass the tests' output through.
#
# Invoked by ctest as:
#   cmake -DKMU_TESTS=<path to kmu_tests>
#         -DBUSY_PIPE=<path to kmu_busy_pipe>
#         -P realtime_contention_check.cmake

if(NOT KMU_TESTS OR NOT BUSY_PIPE)
    message(FATAL_ERROR "pass -DKMU_TESTS= and -DBUSY_PIPE= paths")
endif()
set(REPEAT 20)
set(TIMEOUT_S 240)

set(suites
    SwQueuePairTest
    EmulatedDeviceTest
    SwQueueEngineTest
    AllMechanisms/EngineParamTest
    RecoveryTest
    ReplayMethodologyTest)
list(TRANSFORM suites APPEND ".*")
list(JOIN suites ":" filter)

cmake_host_system_information(RESULT cpus
    QUERY NUMBER_OF_LOGICAL_CORES)
if(cpus LESS 1)
    set(cpus 1)
endif()

set(pipeline COMMAND ${KMU_TESTS} --gtest_filter=${filter}
                     --gtest_repeat=${REPEAT} --gtest_brief=1)
foreach(i RANGE 1 ${cpus})
    list(APPEND pipeline COMMAND ${BUSY_PIPE})
endforeach()

string(TIMESTAMP t0 "%s")
execute_process(${pipeline}
    TIMEOUT ${TIMEOUT_S}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULTS_VARIABLE rcs)
string(TIMESTAMP t1 "%s")
math(EXPR wall "${t1} - ${t0}")

# A failed test makes the binary exit 1 and a panic aborts it, so
# either shows as a nonzero rc.
list(GET rcs 0 rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "threaded SW-queue suites failed under contention "
        "(${REPEAT} repetitions, ${cpus} busy loops, rc=${rc}, "
        "${wall} s):\n${out}${err}")
endif()
message(STATUS "realtime contention: ${REPEAT} repetitions of "
               "${filter} passed next to ${cpus} busy loops "
               "in ${wall} s")
