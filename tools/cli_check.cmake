# CLI contract checks for bgnsim/bgnserve, run by ctest as
#
#   cmake -DTOOL=<binary> -DARGS="<flags>" -DEXPECT=<regex> -P cli_check.cmake
#     requires exit status 2 and a stderr matching EXPECT; with
#     -DSTATUS=N for any other N, exit status N and a stdout matching
#     EXPECT (--help exits 0, a failed run 1);
#   cmake -DTOOL=<binary> -DARGS="<flags>" -DCOMPARE_JOBS=A,B -P cli_check.cmake
#     requires exit status 0 and the same stdout at --jobs A and --jobs B.
separate_arguments(args UNIX_COMMAND "${ARGS}")

if(DEFINED COMPARE_JOBS)
    string(REPLACE "," ";" jobs "${COMPARE_JOBS}")
    set(first "")
    foreach(j IN LISTS jobs)
        execute_process(COMMAND "${TOOL}" ${args} --jobs ${j}
                        RESULT_VARIABLE status OUTPUT_VARIABLE out
                        ERROR_VARIABLE err)
        if(NOT status EQUAL 0)
            message(FATAL_ERROR "--jobs ${j}: exit ${status}\n${err}")
        endif()
        if(first STREQUAL "")
            set(first "${out}")
        elseif(NOT out STREQUAL first)
            message(FATAL_ERROR "stdout differs at --jobs ${j}:\n${out}\n"
                                "--- vs ---\n${first}")
        endif()
    endforeach()
    return()
endif()

if(NOT DEFINED STATUS)
    set(STATUS 2)
endif()
execute_process(COMMAND "${TOOL}" ${args} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL STATUS)
    message(FATAL_ERROR "exit status '${status}', want ${STATUS}\n"
                        "stdout: ${out}\nstderr: ${err}")
endif()
# A rejection speaks on stderr; a run or --help speaks on stdout.
if(NOT STATUS EQUAL 2)
    set(err "${out}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "output does not match '${EXPECT}':\n${err}")
endif()
