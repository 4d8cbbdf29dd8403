# Bad-input gate for the CLI tools: every malformed key=value pair
# must be rejected up front with a non-zero exit and a diagnostic
# naming the offending input — never a silent wrap (the historical
# failure: strtoull skips leading whitespace and accepts a sign, so
# "measure_us= -1" wrapped to ~1.8e19 µs and panicked deep inside the
# simulation instead of failing at the command line).
#
# Invoked by ctest as:
#   cmake -DKMU_SIM=<path> -DKMU_TRACE=<path> -DKMU_FAULTSTORM=<path>
#         -DABL_OUTAGE=<path> -P cli_badinput_check.cmake

foreach(tool KMU_SIM KMU_TRACE KMU_FAULTSTORM ABL_OUTAGE)
    if(NOT ${tool})
        message(FATAL_ERROR "pass -D${tool}=<path>")
    endif()
endforeach()

# reject(<diag-fragment> <tool> [args...]): the run must exit
# non-zero and mention the fragment on stderr.
function(reject fragment)
    execute_process(
        COMMAND ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(rc EQUAL 0)
        message(FATAL_ERROR
            "accepted bad input: ${ARGN} (expected failure)")
    endif()
    if(NOT err MATCHES "${fragment}")
        message(FATAL_ERROR
            "bad-input diagnostic for '${ARGN}' does not name the "
            "offending input '${fragment}': ${err}")
    endif()
endfunction()

# kmu_sim: trailing garbage, leading whitespace (the wrap bug),
# unknown keys, non-key=value arguments, bad enum values, a batch or
# value size above AccessEngine::maxBatch (formerly a panic inside
# the model), and an over-limit keyspace.
reject("lambda=0.5x"      ${KMU_SIM} "lambda=0.5x")
reject("lambda= -1"       ${KMU_SIM} "lambda= -1")
reject("measure_us= -1"   ${KMU_SIM} "measure_us= -1")
reject("measure_us=10us"  ${KMU_SIM} "measure_us=10us")
reject("no_such_key"      ${KMU_SIM} "no_such_key=1")
reject("noequals"         ${KMU_SIM} "noequals")
reject("mechanism=bogus"  ${KMU_SIM} "mechanism=bogus")
reject("batch=17"         ${KMU_SIM} "batch=17")
reject("value_lines=17"   ${KMU_SIM} "arrival=poisson" "value_lines=17")
# keys x value_lines past the 2^42-line address limit: the first pair
# wraps a 64-bit product to 0 (formerly accepted), the second formerly
# panicked inside the model.
reject("keys=9223372036854775808" ${KMU_SIM} "arrival=poisson"
       "keys=9223372036854775808" "value_lines=2" "measure_us=20")
reject("keys=18446744073709551615" ${KMU_SIM} "arrival=poisson"
       "keys=18446744073709551615" "value_lines=2" "measure_us=20")

# kmu_faultstorm: bad rate lists and whitespace-wrapped integers.
reject("rates=0.1,x"      ${KMU_FAULTSTORM} "rates=0.1,x")
reject("seed= -1"         ${KMU_FAULTSTORM} "seed= -1")
reject("ops=25oo"         ${KMU_FAULTSTORM} "ops=25oo")

# kmu_trace: non-key=value junk after the trace path and missing
# files must both fail loudly.
reject("noequals"         ${KMU_TRACE} "in.kmt" "noequals")
reject("no-such-trace"    ${KMU_TRACE} "no-such-trace.kmt")

# abl_outage: the bench formerly used bare strtoull for these.
reject("ops=25oo"         ${ABL_OUTAGE} "ops=25oo")
reject("seed= -1"         ${ABL_OUTAGE} "seed= -1")
reject("fibers=0x"        ${ABL_OUTAGE} "fibers=0x")
reject("no_such_key"      ${ABL_OUTAGE} "no_such_key=1")

# Positive control: a well-formed invocation of the strictest parser
# still succeeds (guards against over-rejection).
execute_process(
    COMMAND ${KMU_SIM} mechanism=ondemand latency_us=1 measure_us=20
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "well-formed kmu_sim invocation rejected (rc=${rc}): ${err}")
endif()

message(STATUS "cli bad-input gate passed")
