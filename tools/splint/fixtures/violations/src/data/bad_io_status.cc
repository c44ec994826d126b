// splint fixture: environmental-failure handling violations on an IO
// path. Never compiled.

#include <cstdlib>
#include <string>

struct Dataset
{
    int saveTo(const std::string &path) const;
};

struct Store
{
    Dataset dataset;
};

void
loadOrDie(Dataset &dataset, Store *store, const std::string &path)
{
    if (path.empty())
        std::exit(1);                  // violation: io-status
    panicIf(path.size() > 4096,        // violation: io-status
            "path too long");
    dataset.saveTo(path);              // violation: io-status (dropped)
    store->dataset.saveTo(path);       // violation: io-status (dropped)
}
