/* Instruction forms that no installed binary was found to hold, for the
   cross-syntax record check of tests/test_real_binary.py, which builds
   this file with
       gcc -O1 -mavx -minline-all-stringops -mstringop-strategy=rep_byte -c
   There the compare is `repz cmpsb %es:(%rdi),%ds:(%rsi)`, and the
   conversions are `vcvtsi2sdq (%rdi),...` and `vcvtsi2ssl (%rdi),...`,
   whose Intel spellings drop the size suffix for a memory operand size.
   The inline asm holds the loop forms and xbegin, conditional transfers
   whose bare hex target objdump prints as a jcc's, and btc, whose AT&T
   spelling may carry a size suffix; it is only assembled, never run. */

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

void loops_and_bit_complements(void)
{
    __asm__ volatile ("nop; 1: loop 1b; loope 1b; loopne 1b; xbegin 2f;"
                      "2: btcq $3,(%rsp); btc %rax,%rcx");
}
