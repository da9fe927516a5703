# Runs every command of commands.txt through dstc_sim and compares its
# stdout with the recorded transcript, byte for byte.
#
#   cmake -DDSTC_SIM=<dstc_sim> -DGOLDEN_DIR=<this dir> -DOUT_DIR=<dir>
#         -P check.cmake        (from the repository root)
#
# A mismatch keeps the actual output in OUT_DIR and prints a diff.
file(STRINGS ${GOLDEN_DIR}/commands.txt lines REGEX "^[a-z0-9_]+: ")
file(MAKE_DIRECTORY ${OUT_DIR})
set(failed "")
foreach(line IN LISTS lines)
  string(REGEX MATCH "^([a-z0-9_]+): (.*)$" _ "${line}")
  set(name ${CMAKE_MATCH_1})
  separate_arguments(args UNIX_COMMAND "${CMAKE_MATCH_2}")
  execute_process(COMMAND ${DSTC_SIM} ${args}
                  OUTPUT_FILE ${OUT_DIR}/${name}.txt
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(SEND_ERROR "${name}: dstc_sim exited with ${code}")
    list(APPEND failed ${name})
    continue()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${GOLDEN_DIR}/${name}.txt ${OUT_DIR}/${name}.txt
                  RESULT_VARIABLE differs)
  if(differs)
    execute_process(COMMAND diff -u ${GOLDEN_DIR}/${name}.txt
                            ${OUT_DIR}/${name}.txt)
    message(SEND_ERROR "${name}: stdout differs from ${name}.txt")
    list(APPEND failed ${name})
  endif()
endforeach()
list(LENGTH lines total)
if(failed)
  message(FATAL_ERROR "CLI golden transcripts: mismatch in ${failed}")
endif()
message(STATUS "CLI golden transcripts: ${total} commands match")
