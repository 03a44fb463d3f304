# Runs a program twice and fails unless both runs exit 0 and print
# byte-identical standard output.
#
#   cmake -DPROGRAM=path -DLEFT_ARGS="..." -DRIGHT_ARGS="..."
#         [-DRIGHT_ENV=NAME=VALUE] -P compare_stdout.cmake
#
# RIGHT_ENV sets one environment variable for the second run only.
foreach(side LEFT RIGHT)
  separate_arguments(args UNIX_COMMAND "${${side}_ARGS}")
  if(side STREQUAL "RIGHT" AND RIGHT_ENV)
    string(REPLACE "=" ";" env "${RIGHT_ENV}")
    list(GET env 0 env_name)
    list(GET env 1 env_value)
    set(ENV{${env_name}} "${env_value}")
  endif()
  execute_process(COMMAND "${PROGRAM}" ${args}
                  OUTPUT_VARIABLE ${side}_OUT
                  ERROR_VARIABLE ${side}_ERR
                  RESULT_VARIABLE ${side}_RC)
  if(NOT ${side}_RC EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${${side}_ARGS} exited with "
                        "${${side}_RC}:\n${${side}_ERR}")
  endif()
endforeach()
if(NOT LEFT_OUT STREQUAL RIGHT_OUT)
  message(FATAL_ERROR "outputs differ\n--- ${LEFT_ARGS}\n${LEFT_OUT}\n"
                      "--- ${RIGHT_ARGS} ${RIGHT_ENV}\n${RIGHT_OUT}")
endif()
message(STATUS "outputs byte-identical (${LEFT_ARGS} | ${RIGHT_ARGS})")
