# Runs one paper bench and compares its stdout, byte for byte, with the
# checked-in golden file. On a mismatch the test fails and prints the
# first differing line of each.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden file> -DSCALE=64 -P compare.cmake
#
# A deliberate output change regenerates the golden file, so the change
# shows up as its diff:
#
#   build/bench/bench_table1 --scale=64 > bench/golden/bench_table1.txt
cmake_minimum_required(VERSION 3.22)

execute_process(COMMAND "${BENCH}" "--scale=${SCALE}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} --scale=${SCALE} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both texts line by line to the first difference.
set(line 1)
while(TRUE)
  foreach(side expected actual)
    string(FIND "${${side}}" "\n" ${side}_end)
    if(${side}_end EQUAL -1)
      set(${side}_line "${${side}}")
    else()
      string(SUBSTRING "${${side}}" 0 ${${side}_end} ${side}_line)
    endif()
  endforeach()
  if(NOT expected_line STREQUAL actual_line OR expected_end EQUAL -1 OR actual_end EQUAL -1)
    break()
  endif()
  foreach(side expected actual)
    math(EXPR next "${${side}_end} + 1")
    string(SUBSTRING "${${side}}" ${next} -1 ${side})
  endforeach()
  math(EXPR line "${line} + 1")
endwhile()
# Name the side that ran out, or lost its last newline.
foreach(side expected actual)
  if("${${side}}" STREQUAL "")
    set(${side}_line "<end of output>")
  elseif(${side}_end EQUAL -1 AND expected_line STREQUAL actual_line)
    string(APPEND ${side}_line "<no newline at end of output>")
  endif()
endforeach()
message(FATAL_ERROR "${BENCH} --scale=${SCALE} differs from ${GOLDEN} at line ${line}:\n"
  "  golden: ${expected_line}\n"
  "  bench:  ${actual_line}")
