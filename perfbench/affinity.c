/* CPU affinity for the benchmark runner: the OCaml Unix library has no
   binding for sched_getaffinity/sched_setaffinity (Linux). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    n = CPU_COUNT(&set);
  cpus = caml_alloc_tuple(n);
  for (int cpu = 0; k < n && cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set))
      Store_field(cpus, k++, Val_int(cpu));
  CAMLreturn(cpus);
}

/* Let thread [tid] (0: the caller) run on the CPUs of the int array
   [cpus] only; false on failure. */
value perfbench_set_affinity(value tid, value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++)
    CPU_SET(Int_val(Field(cpus, i)), &set);
  return Val_bool(sched_setaffinity(Int_val(tid), sizeof set, &set) == 0);
}
