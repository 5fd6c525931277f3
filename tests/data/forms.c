/* Instruction forms that no installed binary was found to hold, for the
   cross-syntax record check of tests/test_real_binary.py, which builds
   this file with
       gcc -O1 -mavx -minline-all-stringops -mstringop-strategy=rep_byte -c
   There the compare is `repz cmpsb %es:(%rdi),%ds:(%rsi)`, and the
   conversions are `vcvtsi2sdq (%rdi),...` and `vcvtsi2ssl (%rdi),...`,
   whose Intel spellings drop the size suffix for a memory operand size. */

int same_24_bytes(const void *a, const void *b)
{
    return __builtin_memcmp(a, b, 24) == 0;
}

double long_to_double(const long *p)
{
    return *p;
}

float int_to_float(const int *p)
{
    return *p;
}
