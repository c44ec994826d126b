// splint fixture tree: a grammar table with two rows, but the README
// only documents "cache" -> spec-doc must fire for "zap".

struct Option
{
    const char *key;
    double *field;
};

double cache_fraction = 0.0;
double zap = 0.0;

const Option kRows[] = {
    {"cache", &cache_fraction}, // documented in ../../README.md
    {"zap", &zap},              // undocumented -> spec-doc violation
};
