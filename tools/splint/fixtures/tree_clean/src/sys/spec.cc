// splint clean-tree fixture: every grammar row's key is documented in
// the sibling README.md.

struct Option
{
    const char *key;
    double *field;
};

double cache_fraction = 0.0;
double policy = 0.0;

const Option kRows[] = {
    {"cache", &cache_fraction},
    {"policy", &policy},
};
